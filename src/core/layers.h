// Tensor-parallel layers (Megatron-LM style) with optional sequence
// parallelism and selective activation recomputation — the building
// blocks of Figures 4 and 5.
//
// Weight initialization: every rank generates the *full* weight from a
// deterministic master RNG and keeps only its shard. A serial model
// (tp size 1) built from the same seed therefore has bitwise-identical
// parameters, which is what the serial-vs-parallel equivalence tests
// rely on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/functions.h"
#include "core/env.h"

namespace mls::core {

// Y = X·A with A split along columns: A = [A_1, ..., A_t]. How the
// input enters the tensor-parallel region (f, or the fused g+matmul) is
// the plan's decision: the layer calls env.plan().column_matmul.
class ColumnParallelLinear {
 public:
  // `blocks`: the output dimension is treated as `blocks` equal blocks,
  // each sharded separately (the fused QKV projection uses blocks=3 so
  // that each rank's shard is [Q_r | K_r | V_r]).
  ColumnParallelLinear(const ParallelEnv& env, int64_t in, int64_t out,
                       Rng& master, float stddev, std::string name,
                       int64_t blocks = 1);

  ag::Var forward(const ag::Var& x, const ParallelEnv& env) const;
  // The GEMM without the bias epilogue, for callers that fuse the bias
  // into the next op (ParallelMLP's bias+GeLU).
  ag::Var forward_nobias(const ag::Var& x, const ParallelEnv& env) const;

  int64_t out_per_rank() const { return weight.value().dim(1); }
  std::vector<ag::Var> params() const { return {weight, bias}; }
  // Params whose gradients must be all-reduced over the TP group when
  // sequence parallelism is on (none for this layer: the bias grad is
  // computed from the full gathered sequence).
  std::vector<ag::Var> replicated_params() const { return {}; }

  ag::Var weight;  // [in, out/t]
  ag::Var bias;    // [out/t]
};

// Y = X·B with B split along rows; how the partial products are summed
// (f̄: all-reduce, replicated out; ḡ: reduce-scatter, sequence-sharded
// out) is the plan's row_exit decision.
class RowParallelLinear {
 public:
  RowParallelLinear(const ParallelEnv& env, int64_t in, int64_t out,
                    Rng& master, float stddev, std::string name);

  ag::Var forward(const ag::Var& x, const ParallelEnv& env) const;
  // The exit half on a caller-computed partial product (row_exit + bias
  // epilogue) for callers that fuse the GEMM into the preceding op
  // (ParallelMLP routing through the plan's mlp_act_fc2).
  ag::Var finish(const ag::Var& y_partial, const ParallelEnv& env) const;

  std::vector<ag::Var> params() const { return {weight, bias}; }
  // Under SP the bias is added to the sequence-sharded output, so its
  // gradient is partial per rank and must be summed over the TP group.
  std::vector<ag::Var> replicated_params() const { return {bias}; }

  ag::Var weight;  // [in/t, out]
  ag::Var bias;    // [out] (replicated; added after the reduction)
};

// Self-attention with a attention heads split across the TP group
// (Fig 4/5 left block), including the checkpointable attention core
// (Fig 3) used by selective activation recomputation.
class ParallelSelfAttention {
 public:
  ParallelSelfAttention(const ParallelEnv& env, int64_t h, int64_t a,
                        float attn_dropout_p, bool causal, uint64_t site_base,
                        Rng& master, std::string name);

  // x: [s, b, h] (TP) or [s/t, b, h] (TP+SP). Output has the same
  // sharding as the input.
  ag::Var forward(const ag::Var& x, const ParallelEnv& env) const;

  std::vector<ag::Var> params() const;
  std::vector<ag::Var> replicated_params() const {
    return proj.replicated_params();
  }

  ColumnParallelLinear qkv;  // h -> 3h (blocks=3)
  RowParallelLinear proj;    // h -> h

 private:
  int64_t h_, a_;
  float dropout_p_;
  bool causal_;
  uint64_t site_base_;
};

// Two-layer MLP h -> 4h -> h (Fig 4/5 right block).
class ParallelMLP {
 public:
  ParallelMLP(const ParallelEnv& env, int64_t h, Rng& master, std::string name);

  ag::Var forward(const ag::Var& x, const ParallelEnv& env) const;

  std::vector<ag::Var> params() const;
  std::vector<ag::Var> replicated_params() const {
    return lin2.replicated_params();
  }

  ColumnParallelLinear lin1;  // h -> 4h
  RowParallelLinear lin2;     // 4h -> h
};

}  // namespace mls::core
