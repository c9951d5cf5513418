#include "core/parallel_plan.h"

#include "analysis/ledger.h"
#include "autograd/functions.h"
#include "common/check.h"
#include "core/collectives.h"

namespace mls::core {

const char* plan_kind_name(PlanKind k) {
  switch (k) {
    case PlanKind::kTensorParallel: return "tp";
    case PlanKind::kTensorSequence: return "tp_sp";
    case PlanKind::kFoldedTsp: return "folded_tsp";
  }
  return "?";
}

PlanKind plan_kind_from_string(const std::string& s) {
  if (s == "tp") return PlanKind::kTensorParallel;
  if (s == "tp_sp" || s == "sp") return PlanKind::kTensorSequence;
  if (s == "folded_tsp" || s == "folded") return PlanKind::kFoldedTsp;
  throw Error("unknown parallel plan '" + s +
              "' (expected tp | tp_sp | folded_tsp)");
}

// ------------------------------------------------- shared default stages

ag::Var ParallelPlan::attention_core(const ag::Var& q, const ag::Var& k,
                                     const ag::Var& v,
                                     const AttnCoreDims& d) const {
  ag::Var scores = ag::bmm(q, k, /*trans_b=*/true);
  ag::Var probs = ag::scaled_softmax(scores, d.alpha, d.causal);
  // Mask coordinates live in the global [b, a, s, s] tensor so all
  // shardings (and the serial reference) draw identical masks.
  ops::IndexMap map;
  map.dims = {d.batch, d.heads_local, d.s_full, d.s_full};
  map.strides = {d.heads_total * d.s_full * d.s_full, d.s_full * d.s_full,
                 d.s_full, 1};
  map.base = static_cast<int64_t>(d.rank) * d.heads_local * d.s_full * d.s_full;
  ag::Var probs_d = ag::dropout(probs, d.dropout_p, d.seed, map);
  return ag::bmm(probs_d, v, /*trans_b=*/false);
}

ag::Var ParallelPlan::mlp_act_fc2(const ag::Var& z1, const ag::Var& b1,
                                  const ag::Var& w2) const {
  // Fused bias+GeLU epilogue on lin1's GEMM output (one sweep instead
  // of add_bias + gelu; same saved bytes — see functions.h).
  ag::Var z = ag::bias_gelu(z1, b1);
  return ag::matmul(z, w2);
}

void ParallelPlan::sync_replicated_grads(const std::vector<ag::Var>& params,
                                         comm::Comm tp) const {
  if (!tp.valid() || tp.size() == 1) return;
  analysis::SiteGuard sg("sync_replicated_grads");
  for (const ag::Var& p : params) {
    if (!p.has_grad()) continue;
    Tensor g = p.impl()->grad;
    tp.all_reduce(g);
  }
}

// ------------------------------------------------------------------ TP

namespace {

class TpPlan final : public ParallelPlan {
 public:
  const char* name() const override { return "tensor parallel"; }
  PlanKind kind() const override { return PlanKind::kTensorParallel; }
  bool sequence_sharded() const override { return false; }

  ag::Var column_matmul(const ag::Var& x, const ag::Var& w, bool trans_b,
                        const ParallelEnv& env) const override {
    // f then GEMM; the replicated input is the saved activation.
    ag::Var xf = copy_to_tensor_parallel(x, env.tp);
    return ag::matmul(xf, w, trans_b);
  }

  ag::Var row_exit(const ag::Var& y_partial,
                   const ParallelEnv& env) const override {
    return reduce_from_tensor_parallel(y_partial, env.tp);  // f̄
  }

  double act_bytes_per_layer(const LayerDims& d, Recompute rc) const override {
    const double sbh = static_cast<double>(d.s) * d.b * d.h;
    const double attn = 5.0 * d.a * d.s * d.s * d.b;
    const double t = d.t;
    switch (rc) {
      case Recompute::kNone:
        return (10.0 + 24.0 / t) * sbh + attn / t;  // Eq 2
      case Recompute::kSelective:
        return (10.0 + 24.0 / t) * sbh;  // Table 2 row 4
      case Recompute::kFull:
        return 2.0 * sbh;  // replicated layer input only
    }
    return 0;
  }
};

// ------------------------------------------------------------------ SP

class SpPlan : public ParallelPlan {
 public:
  const char* name() const override { return "tensor + sequence parallel"; }
  PlanKind kind() const override { return PlanKind::kTensorSequence; }
  bool sequence_sharded() const override { return true; }

  ag::Var column_matmul(const ag::Var& x, const ag::Var& w, bool trans_b,
                        const ParallelEnv& env) const override {
    // g fused with the GEMM; §4.2.2's sharded-save optimization.
    return sp_gathered_matmul(x, w, env.tp, trans_b, env.sharded_input_save);
  }

  ag::Var row_exit(const ag::Var& y_partial,
                   const ParallelEnv& env) const override {
    return scatter_to_sequence_parallel(y_partial, env.tp);  // ḡ
  }

  double act_bytes_per_layer(const LayerDims& d, Recompute rc) const override {
    const double sbh = static_cast<double>(d.s) * d.b * d.h;
    const double attn = 5.0 * d.a * d.s * d.s * d.b;
    const double t = d.t;
    switch (rc) {
      case Recompute::kNone:
        return (34.0 * sbh + attn) / t;  // Eq 4
      case Recompute::kSelective:
        return 34.0 * sbh / t;  // Eq 6 per layer
      case Recompute::kFull:
        return 2.0 * sbh / t;  // sequence-sharded layer input
    }
    return 0;
  }
};

// ---------------------------------------------------------- folded TSP

// Folded tensor+sequence parallelism (arXiv 2604.26294): identical
// collectives, sites and numerics to the SP plan, but the two
// pointwise-recomputable activations are folded into their consumer
// GEMM nodes and never stored:
//   * the MLP GeLU output (8sbh/t) — bias_gelu fused into lin2's GEMM,
//     recomputed pointwise from the saved pre-bias input in backward;
//   * the attention probabilities (2·as²b/t of the 5as²b/t term) — the
//     softmax output and its dropped copy recomputed from the saved
//     scores + 1-byte mask inside the fused softmax-dropout-AV node.
// Per-layer bytes drop from (34sbh + 5as²b)/t to (26sbh + 3as²b)/t.
class FoldedTspPlan final : public SpPlan {
 public:
  const char* name() const override {
    return "folded tensor + sequence parallel";
  }
  PlanKind kind() const override { return PlanKind::kFoldedTsp; }

  ag::Var attention_core(const ag::Var& q, const ag::Var& k, const ag::Var& v,
                         const AttnCoreDims& d) const override {
    ag::Var scores = ag::bmm(q, k, /*trans_b=*/true);
    ops::IndexMap map;
    map.dims = {d.batch, d.heads_local, d.s_full, d.s_full};
    map.strides = {d.heads_total * d.s_full * d.s_full, d.s_full * d.s_full,
                   d.s_full, 1};
    map.base =
        static_cast<int64_t>(d.rank) * d.heads_local * d.s_full * d.s_full;
    return ag::scaled_softmax_dropout_bmm(scores, v, d.alpha, d.causal,
                                          d.dropout_p, d.seed, map);
  }

  ag::Var mlp_act_fc2(const ag::Var& z1, const ag::Var& b1,
                      const ag::Var& w2) const override {
    return ag::bias_gelu_matmul(z1, b1, w2);
  }

  double act_bytes_per_layer(const LayerDims& d, Recompute rc) const override {
    const double sbh = static_cast<double>(d.s) * d.b * d.h;
    // scores (2as²b) + mask (as²b); the probabilities are folded away.
    const double attn = 3.0 * d.a * d.s * d.s * d.b;
    const double t = d.t;
    switch (rc) {
      case Recompute::kNone:
        return (26.0 * sbh + attn) / t;
      case Recompute::kSelective:
        return 26.0 * sbh / t;  // Q/K/V checkpoint inputs + outer region
      case Recompute::kFull:
        return 2.0 * sbh / t;
    }
    return 0;
  }
};

}  // namespace

const ParallelPlan& tp_plan() {
  static const TpPlan plan;
  return plan;
}

const ParallelPlan& sp_plan() {
  static const SpPlan plan;
  return plan;
}

const ParallelPlan& folded_tsp_plan() {
  static const FoldedTspPlan plan;
  return plan;
}

const ParallelPlan& plan_for(PlanKind kind) {
  switch (kind) {
    case PlanKind::kTensorParallel: return tp_plan();
    case PlanKind::kTensorSequence: return sp_plan();
    case PlanKind::kFoldedTsp: return folded_tsp_plan();
  }
  return tp_plan();
}

}  // namespace mls::core
