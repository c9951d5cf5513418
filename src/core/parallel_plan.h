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
//                      pointwise-recomputable activations never stored —
//                      the GeLU output folded into lin2's GEMM node, the
//                      attention probabilities left out of the core's
//                      saved set — same collectives, same numerics,
//                      fewer bytes (Table-2 row (26sbh + 3as²b)/t).
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
// besides the QKV output, whose shape gives s, b and the head size.
// dropout_p is the *effective* probability (inference already applied
// by the caller); the mask coordinates address the global [b, a, s, s]
// tensor so all shardings draw identical masks.
struct AttnCoreDims {
  int64_t heads_local = 0;  // a / t
  int64_t heads_total = 0;  // a
  int rank = 0;             // tp rank (head-shard offset)
  float alpha = 1.0f;       // 1/sqrt(d) score scaling
  bool causal = true;
  float dropout_p = 0.0f;
  uint64_t seed = 0;

  // The softmax-dropout mask's coordinates in the global [b, a, s, s]
  // tensor for slice i = bi·a/t + hi of the local [b·a/t, s, s]
  // probabilities at sequence length s (the core always sees the full
  // sequence), so every sharding and the serial reference draw
  // identical masks: an [s, s] block at base
  // rank·(a/t)·s² + bi·a·s² + hi·s².
  ops::IndexMap mask_map(int64_t slice, int64_t s) const;
};

// Which attention-core tensors attention_core keeps for backward. The
// s² state is the only thing the recompute rungs (paper §5) and the
// folded plan change, so it is data on one node, not one implementation
// per choice. Bytes are per layer at the paper's dtypes (fp16, 1-byte
// mask); the QKV output (Table 2's Q, K and V terms) is kept in every
// set.
enum class AttnSaved {
  kInputs,  // QKV only; backward recomputes each slice (recompute rungs)
  kProbs,   // P, mask and P·dropout: 5as²b/t (Table 2, kNone)
  kScores,  // scores and mask: 3as²b/t; backward recomputes P, P·dropout
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

  // The attention core's saved set at Recompute::kNone: the s² state
  // this plan keeps when nothing is recomputed (its Table-2 attention
  // term). The recompute rungs keep AttnSaved::kInputs on every plan.
  virtual AttnSaved attention_saved() const { return AttnSaved::kProbs; }

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

// The attention core (Fig 3's red dashed region): QKᵀ, scaled softmax,
// softmax-dropout and attention over V, read from the QKV GEMM's
// [s, b, 3h/t] output where it lies and written as the [s, b, h/t]
// context the output projection reads. Slice i = (bi, hi) of Q is the
// [s, d] matrix at offset bi·3h/t + hi·d with row stride b·3h/t; K and
// V sit h/t and 2h/t further; the context slice, dctx and d(QKV) follow
// the same rule (row strides b·h/t and b·3h/t). Every per-slice GEMM
// addresses its operands through leading dimensions (kernels::gemm), so
// no layout copy is made in either direction.
// One autograd node for every plan and rung, whose one saved input is
// the QKV output: it streams the b·a/t (batch, head) slices through the
// raw kernels, with at most a few s×s slice buffers of workspace live
// at a time, and writes the s² tensors of `saved` slice by slice into
// whole [b·a/t, s, s] saved tensors. Backward rebuilds, per slice,
// whatever the set left out (never the P·V GEMM) and then runs dV, dP,
// dS, dQ and dK straight into one d(QKV) buffer, which the slices' dQ,
// dK and dV tile exactly. Every output row depends on one slice only
// and the GEMM fixes each element's k order, so values and gradients
// are bitwise the unfused bmm → scaled_softmax → dropout → bmm chain's
// over [b·a/t, s, d] Q, K and V, whatever the set.
// A causal core computes only the live lower triangle: its seven
// per-slice GEMMs run in kernels::Tri modes and its dropout, dropout
// grad and softmax grad in their causal forms, which skip only terms
// that multiply an exact zero, so the bits stay the chain's (the
// scores' dead tiles are left unwritten, and nothing reads them). A
// non-causal core runs the full square.
// Under no-grad the node keeps nothing and draws no mask.
ag::Var attention_core(const ag::Var& qkv, const AttnCoreDims& d,
                       AttnSaved saved);

// The built-in plans (stateless singletons with static lifetime).
const ParallelPlan& tp_plan();
const ParallelPlan& sp_plan();
const ParallelPlan& folded_tsp_plan();

// The singleton for a plan kind.
const ParallelPlan& plan_for(PlanKind kind);

}  // namespace mls::core
