// Analytical activation-memory model: the paper's §4 formulas.
//
// All results are BYTES (the paper's formulas fold the 2-byte fp16 /
// 1-byte mask factors into the coefficients — e.g. the "34" in Eq 1 is
// 2 bytes × 17 sbh-sized fp16 tensors + 2 × 1-byte sbh masks).
//
// The runtime MemoryTracker measures exactly what these formulas
// predict; tests/test_memory.cpp asserts byte-exact agreement for every
// (plan, recompute) pair.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/env.h"
#include "model/config.h"

namespace mls::memory {

// A Table-2 cell: the parallel plan's wiring crossed with the recompute
// rung. The paper's six rows are named views of this 3x3 grid (its "no
// parallelism" row is tp at t=1; its replicated sbh(2) full-recompute
// row is tp x full); the plan owns every cell's formula.
struct Technique {
  core::PlanKind plan = core::PlanKind::kTensorParallel;
  core::Recompute recompute = core::Recompute::kNone;
};

// The Technique a ModelConfig runs: {cfg.parallel_plan, cfg.recompute}.
Technique technique_of(const model::ModelConfig& cfg);

// Activation bytes stored per transformer layer (Table 2): the plan's
// own act_bytes_per_layer at the config's (s, b, h, a, t).
double act_bytes_per_layer(const model::ModelConfig& cfg, Technique tech);

// §4.3 extras outside the transformer layers, for the first pipeline
// stage: the embedding dropout mask for all in-flight microbatches
// (sbh·p, divided by t iff the plan is sequence-sharded) plus — only
// when p == 1, per the paper's δ_{p=1} — the final layer-norm input,
// the output projection input, and the fp32 logits.
double extras_bytes(const model::ModelConfig& cfg, Technique tech);

// Interleaved-schedule inflation factor 1 + (p-1)/(p·m) (§4.2.3).
double interleave_factor(const model::ModelConfig& cfg);

// Eq 5 (+ interleaving + extras): total activation bytes on the first
// (worst-case) pipeline stage. The first stage keeps p microbatches in
// flight, i.e. a full L layers' worth of activations.
double total_activation_bytes_first_stage(const model::ModelConfig& cfg,
                                          Technique tech,
                                          bool include_extras = true);

// ---------------------------------------------------------------- Fig 9

struct PipelineRankMemory {
  int rank;
  int64_t microbatches_in_flight;  // r = min(p - rank, n_microbatches)
  double bytes_unoptimized;  // keeps each microbatch's stage-output tensor
  double bytes_optimized;    // Appendix B: output deallocated after send
};

// Per-pipeline-rank activation memory (Fig 9 / Appendix B). The
// unoptimized curve includes the redundant 2sbh stage-output per
// in-flight microbatch; the optimization deallocates it (saving
// 2·s·b·h·r bytes per rank, peaking at r = p on rank 0 — the paper's
// "sbhp = 2.73 GB" for the 530B model).
std::vector<PipelineRankMemory> per_pipeline_rank_memory(
    const model::ModelConfig& cfg, Technique tech);

// ---------------------------------------------------------------- Fig 1

struct ModelStateBytes {
  double params;      // fp16 weights (2 B/param)
  double grads;       // fp16 grads (2 B/param)
  double optimizer;   // fp32 master + Adam m + v (12 B/param)
  double total() const { return params + grads + optimizer; }
};

// Parameters resident on one GPU: tensor-parallel shard of the
// worst-case (first) pipeline stage, including its embedding.
double params_per_rank(const model::ModelConfig& cfg);
ModelStateBytes model_state_bytes_per_rank(const model::ModelConfig& cfg);

}  // namespace mls::memory
