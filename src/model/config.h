// Model configuration, including the paper's Table 3 presets.
#pragma once

#include <cstdint>
#include <string>

#include "core/env.h"

namespace mls::core {
class ParallelPlan;
}

namespace mls::model {

struct ModelConfig {
  // Architecture (paper Table 1 variable names).
  int64_t a = 4;       // attention heads
  int64_t h = 32;      // hidden size
  int64_t L = 2;       // transformer layers
  int64_t s = 16;      // sequence length
  int64_t v = 64;      // vocabulary size
  int64_t b = 2;       // microbatch size
  float dropout_p = 0.1f;
  bool causal = true;
  float ln_eps = 1e-5f;

  // Parallelism.
  int t = 1;               // tensor-parallel size
  int p = 1;               // pipeline-parallel size
  int d = 1;               // data-parallel size (§6.3; replicas of the t×p grid)
  int interleave_m = 1;    // interleaved pipeline stages per rank (m)
  int64_t global_batch = 2;  // global batch size across all replicas
  bool sharded_input_save = true;
  core::Recompute recompute = core::Recompute::kNone;
  // The layer-wiring strategy (core/parallel_plan.h). Sequence
  // parallelism is plan().sequence_sharded(): true for kTensorSequence
  // and kFoldedTsp.
  core::PlanKind parallel_plan = core::PlanKind::kTensorParallel;
  uint64_t seed = 0x5eed;

  std::string name = "custom";

  int64_t head_dim() const { return h / a; }
  // Microbatches processed by ONE data-parallel replica per iteration.
  int64_t microbatches() const { return global_batch / (static_cast<int64_t>(b) * d); }
  int64_t total_microbatches() const { return global_batch / b; }
  int64_t num_gpus() const { return static_cast<int64_t>(t) * p * d; }
  int64_t layers_per_stage() const { return L / p; }
  // Sequence rows of one rank's outer-region activations: s/t under a
  // sequence-sharded plan, s otherwise.
  int64_t s_local() const;

  // Total parameter count: word embeddings (vh, output layer tied) +
  // positional (sh) + per layer (QKV 3h² + proj h² + MLP 8h² + biases
  // and layer-norms ≈ 12h² + 13h) + final layer-norm.
  double params_total() const {
    const double dh = static_cast<double>(h);
    return static_cast<double>(v) * dh + static_cast<double>(s) * dh +
           static_cast<double>(L) * (12.0 * dh * dh + 13.0 * dh) + 2.0 * dh;
  }

  // ----- paper Table 3 presets --------------------------------------
  static ModelConfig gpt_22b();
  static ModelConfig gpt_175b();   // GPT-3
  static ModelConfig gpt_530b();   // MT-NLG
  static ModelConfig gpt_1t();
  // A laptop-scale config for numeric runs and examples.
  static ModelConfig tiny(int t = 1, int64_t layers = 2);

  void set_plan(core::PlanKind kind) { parallel_plan = kind; }
  // The plan singleton parallel_plan names.
  const core::ParallelPlan& plan() const;

  void validate() const;
};

// The ParallelEnv a rank of this config runs with on `tp`: the plan,
// sharded-input save, recompute rung and seed all come from cfg.
core::ParallelEnv make_env(const ModelConfig& cfg, comm::Comm tp);

}  // namespace mls::model
