// Per-transformer-layer execution-time model (per tensor-parallel rank,
// per microbatch) — regenerates Table 4 and Figure 8.
#pragma once

#include <algorithm>

#include "memory/activation_model.h"
#include "perf/machine.h"

namespace mls::perf {

struct LayerTime {
  double forward = 0;        // seconds
  double backward = 0;       // without recomputation
  double backward_comm = 0;  // un-overlapped comm inside `backward`
  double recompute = 0;      // extra forward work in the backward pass
  double combined() const { return forward + backward + recompute; }

  // Backward including recomputation. With `overlap` (the runtime's
  // overlap_recompute mode) the replay hides inside the backward's
  // communication windows, so the serial sum T_comm + T_recompute
  // becomes max(T_comm, T_recompute). Only valid for replays free of
  // collectives (kSelective); full-layer replays cannot overlap and
  // callers must pass overlap=false for kFull.
  double backward_with_recompute(bool overlap) const {
    if (!overlap) return backward + recompute;
    return backward - backward_comm + std::max(backward_comm, recompute);
  }
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
