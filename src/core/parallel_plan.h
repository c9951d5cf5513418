// ParallelPlan: a transformer layer's parallel strategy as an object.
//
// The paper's whole contribution is *where* collectives fire and *which
// dims are sharded* — f/f̄ for tensor parallelism (Fig 4), g/ḡ for
// tensor+sequence parallelism (Fig 5), and the Table-2 byte formula
// each choice implies. A ParallelPlan owns those decisions for one
// layer family, so layers.cpp/gpt.cpp call the plan instead of
// branching on a sequence-parallel switch, and a new strategy is a new
// plan object rather than another scattered branch. Sequence
// parallelism is not a separate setting: it is sequence_sharded() of
// the plan in use.
//
// Built-in plans:
//   tp_plan()          f/f̄ only; replicated outer region (Fig 4).
//   sp_plan()          f/f̄ + g/ḡ; sequence-sharded outer region
//                      (Fig 5, §4.2.2) with sharded-input-save.
//   folded_tsp_plan()  folded tensor+sequence parallelism
//                      (arXiv 2604.26294): the SP wiring with the
//                      pointwise-recomputable activations *folded into*
//                      their consumer GEMMs, so they are never stored —
//                      same collectives, same numerics, fewer bytes
//                      (Table-2 row (26sbh + 3as²b)/t).
//
// All plans are stateless singletons. ParallelEnv always carries a
// pointer to one (tp_plan() by default); ModelConfig names one by
// PlanKind.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/var.h"
#include "comm/comm.h"
#include "core/env.h"
#include "tensor/ops.h"

namespace mls::core {

// Scalar layer dimensions for the byte model — keeps core/ independent
// of model::ModelConfig.
struct LayerDims {
  int64_t s = 0;  // sequence length
  int64_t b = 0;  // microbatch size
  int64_t h = 0;  // hidden size
  int64_t a = 0;  // attention heads
  int t = 1;      // tensor-parallel size
};

// Everything the attention core (Fig 3's red dashed region) needs
// besides Q/K/V. dropout_p is the *effective* probability (inference
// already applied by the caller); the mask coordinates address the
// global [b, a, s, s] tensor so all shardings draw identical masks.
struct AttnCoreDims {
  int64_t heads_local = 0;  // a / t
  int64_t heads_total = 0;  // a
  int rank = 0;             // tp rank (head-shard offset)
  int64_t batch = 0;        // b
  int64_t s_full = 0;       // s (the core always sees the full sequence)
  float alpha = 1.0f;       // 1/sqrt(d) score scaling
  bool causal = true;
  float dropout_p = 0.0f;
  uint64_t seed = 0;

  // The softmax-dropout mask's coordinates in the global [b, a, s, s]
  // tensor, so every sharding, every core path and the serial reference
  // draw identical masks. mask_map() covers the local [b·a/t, s, s]
  // probabilities; mask_map(i) covers slice i = bi·a/t + hi alone, an
  // [s, s] block at base rank·(a/t)·s² + bi·a·s² + hi·s².
  ops::IndexMap mask_map() const;
  ops::IndexMap mask_map(int64_t slice) const;
};

class ParallelPlan {
 public:
  virtual ~ParallelPlan() = default;

  virtual const char* name() const = 0;
  virtual PlanKind kind() const = 0;

  // Whether the outer region (layer-norms, dropouts, residual stream,
  // embedding output) is sharded along the sequence dimension.
  virtual bool sequence_sharded() const = 0;

  // ColumnParallelLinear's entry + GEMM: f then matmul (TP) or the
  // fused g+matmul with §4.2.2 sharded-input-save (SP). The saved
  // activation this op charges is the plan's main lever.
  virtual ag::Var column_matmul(const ag::Var& x, const ag::Var& w,
                                bool trans_b,
                                const ParallelEnv& env) const = 0;

  // RowParallelLinear's exit: f̄ (all-reduce, replicated out) or ḡ
  // (reduce-scatter, sequence-sharded out).
  virtual ag::Var row_exit(const ag::Var& y_partial,
                           const ParallelEnv& env) const = 0;

  // The attention core: QKᵀ, scaled softmax, softmax-dropout, attention
  // over V, as kNone runs it: the s² state is saved for backward (the
  // 5as²b/t term of Table 2). The default is the unfused four-op chain;
  // folded TSP fuses softmax+dropout+AV into one node. The recompute
  // rungs run streamed_attention_core instead.
  virtual ag::Var attention_core(const ag::Var& q, const ag::Var& k,
                                 const ag::Var& v,
                                 const AttnCoreDims& d) const;

  // The MLP's activation + second GEMM, up to (not including) the row
  // exit: bias_gelu(z1, b1) @ w2. The default stores both the pre-bias
  // z1 and the GeLU output; folded TSP fuses the pair and stores only
  // z1, recomputing the GeLU pointwise in backward.
  virtual ag::Var mlp_act_fc2(const ag::Var& z1, const ag::Var& b1,
                              const ag::Var& w2) const;

  // After backward: sums gradients of params that are replicated across
  // the TP group but received only sequence-shard contributions
  // (layer-norm weights, row-linear biases, positional embeddings).
  // Only meaningful for sequence-sharded plans; a no-op at tp size 1.
  virtual void sync_replicated_grads(const std::vector<ag::Var>& params,
                                     comm::Comm tp) const;

  // The plan's Table-2 activation bytes stored per transformer layer.
  // kFull reports the true stored bytes (the layer input at this plan's
  // outer sharding), which is 2sbh/t for sequence-sharded plans.
  virtual double act_bytes_per_layer(const LayerDims& d,
                                     Recompute rc) const = 0;
};

// The attention core as every recompute rung runs it (kSelective, and
// the layer replay of kFull): one autograd node that saves only q, k
// and v and streams the b·a/t (batch, head) slices through the raw
// kernels, so at most one slice's s×s workspace is live at a time.
// Backward recomputes each slice's probabilities, mask and dropped
// probabilities, then its dV, dQ and dK; it never re-runs the P·V GEMM.
// Every output row depends on one slice only and the GEMM fixes each
// element's k order, so values and gradients are bitwise those of
// every plan's attention_core.
ag::Var streamed_attention_core(const ag::Var& q, const ag::Var& k,
                                const ag::Var& v, const AttnCoreDims& d);

// The built-in plans (stateless singletons with static lifetime).
const ParallelPlan& tp_plan();
const ParallelPlan& sp_plan();
const ParallelPlan& folded_tsp_plan();

// The singleton for a plan kind.
const ParallelPlan& plan_for(PlanKind kind);

}  // namespace mls::core
