// Per-transformer-layer execution-time model (per tensor-parallel rank,
// per microbatch) — regenerates Table 4 and Figure 8.
#pragma once

#include "memory/activation_model.h"
#include "perf/machine.h"

namespace mls::perf {

struct LayerTime {
  double forward = 0;    // seconds
  double backward = 0;   // without recomputation
  double recompute = 0;  // extra forward work in the backward pass
  double combined() const { return forward + backward + recompute; }
};

// Time for one transformer layer in the Table-2 cell `tech`. The plan's
// sequence_sharded() picks the Fig 4 (f/f̄) or Fig 5 (g/ḡ) collectives
// and the outer region's sharding; `tech.recompute` selects what is
// replayed in the backward pass. Folded TSP prices like tp_sp: it
// shares their collectives and sharding, and the model prices no
// pointwise replay.
LayerTime layer_time(const model::ModelConfig& cfg, const MachineModel& mm,
                     memory::Technique tech);

}  // namespace mls::perf
