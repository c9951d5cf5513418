#include "core/parallel_plan.h"

#include <utility>

#include "analysis/ledger.h"
#include "autograd/functions.h"
#include "autograd/node.h"
#include "common/check.h"
#include "core/collectives.h"
#include "tensor/kernels.h"

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

// ------------------------------------------------------ attention core

ops::IndexMap AttnCoreDims::mask_map() const {
  const int64_t ss = s_full * s_full;
  ops::IndexMap map;
  map.dims = {batch, heads_local, s_full, s_full};
  map.strides = {heads_total * ss, ss, s_full, 1};
  map.base = mask_map(0).base;
  return map;
}

ops::IndexMap AttnCoreDims::mask_map(int64_t slice) const {
  const int64_t ss = s_full * s_full;
  const int64_t bi = slice / heads_local;
  const int64_t hi = slice % heads_local;
  ops::IndexMap map;
  map.dims = {s_full, s_full};
  map.strides = {s_full, 1};
  map.base = static_cast<int64_t>(rank) * heads_local * ss +
             bi * heads_total * ss + hi * ss;
  return map;
}

namespace {

// One (batch, head) slice's s×s state, allocated once per pass and
// reused across slices. Forward writes the dropped probs over scores
// and draws no mask. Backward keeps probs, the dropped probs and the
// mask, then reuses scores for d(P·dropout) and dS, and probs_d for dP.
struct SliceWorkspace {
  Tensor scores, probs, probs_d, mask;

  static SliceWorkspace make(int64_t s, Dtype dtype, bool backward) {
    const Shape ss{{s, s}};
    SliceWorkspace ws;
    ws.scores = Tensor::empty(ss, dtype);
    ws.probs = Tensor::empty(ss, dtype);
    if (backward) {
      ws.probs_d = Tensor::empty(ss, dtype);
      ws.mask = Tensor::empty(ss, Dtype::U8);
    }
    return ws;
  }
};

// The streamed core's operands as [b·a/t, s, d] slices.
struct CoreView {
  const float* q;
  const float* k;
  const float* v;
  int64_t s, hd;
  int64_t at(int64_t i) const { return i * s * hd; }
};

// Slice i's probabilities (QKᵀ → scaled softmax into ws.probs) and
// dropped probabilities: into ws.probs_d with the mask when ws holds
// one (backward), else into ws.scores with no mask drawn (forward).
// The same kernels, on the same rows, as ops::bmm / scaled_softmax /
// dropout_stateless over the whole [b·a/t, s, s] tensor.
float* slice_forward(const CoreView& c, const AttnCoreDims& d, int64_t i,
                     SliceWorkspace& ws) {
  const int64_t s = c.s;
  float* scores = ws.scores.data();
  float* probs = ws.probs.data();
  kernels::gemm(c.q + c.at(i), c.k + c.at(i), scores, s, s, c.hd,
                /*trans_a=*/false, /*trans_b=*/true);
  kernels::scaled_softmax(scores, probs, s, d.causal ? s : 1, s, d.alpha,
                          d.causal);
  const bool with_mask = ws.mask.defined();
  float* probs_d = with_mask ? ws.probs_d.data() : scores;
  const ops::IndexMap map = d.mask_map(i);
  kernels::dropout_stateless(probs, probs_d, with_mask ? ws.mask.u8() : nullptr,
                             map.dims.data(), map.strides.data(),
                             static_cast<int>(map.dims.size()), map.base,
                             d.seed, d.dropout_p);
  return probs_d;
}

class StreamedAttentionCoreNode final : public ag::Node {
 public:
  StreamedAttentionCoreNode(const ag::Var& q, const ag::Var& k,
                            const ag::Var& v, const AttnCoreDims& d)
      : q_(q.value(), !q.is_param()),
        k_(k.value(), !k.is_param()),
        v_(v.value(), !v.is_param()),
        d_(d) {}

  const char* name() const override { return "streamed_attention_core"; }

  // Slice 0's state depends only on q, k and v, so it may be rebuilt
  // early, inside a comm window: the lookahead is one slice deep.
  bool prefetchable() const override { return true; }
  void prefetch() override {
    if (front_ready_) return;
    if (!front_.mask.defined()) {
      front_ = SliceWorkspace::make(d_.s_full, q_.get().dtype(), true);
    }
    slice_forward(view(), d_, 0, front_);
    front_ready_ = true;
  }

  std::vector<Tensor> backward(const Tensor& grad_out) override {
    const CoreView c = view();
    const Tensor& q = q_.get();
    const int64_t nb = q.dim(0);
    const int64_t s = c.s;
    Tensor dq = Tensor::empty(q.shape(), q.dtype());
    Tensor dk = Tensor::empty(q.shape(), q.dtype());
    Tensor dv = Tensor::empty(q.shape(), q.dtype());
    const bool prefetched = std::exchange(front_ready_, false);
    SliceWorkspace ws = std::move(front_);
    if (!ws.mask.defined()) ws = SliceWorkspace::make(s, q.dtype(), true);
    for (int64_t i = 0; i < nb; ++i) {
      if (i > 0 || !prefetched) slice_forward(c, d_, i, ws);
      const float* dctx = grad_out.data() + c.at(i);
      // dV = (P·dropout)ᵀ dctx; dP = dropout'(dctx Vᵀ); dS = softmax'(dP).
      kernels::gemm(ws.probs_d.data(), dctx, dv.data() + c.at(i), s, c.hd, s,
                    /*trans_a=*/true, /*trans_b=*/false);
      kernels::gemm(dctx, c.v + c.at(i), ws.scores.data(), s, s, c.hd,
                    /*trans_a=*/false, /*trans_b=*/true);
      kernels::dropout_grad(ws.scores.data(), ws.mask.u8(), ws.probs_d.data(),
                            s * s, d_.dropout_p);
      kernels::scaled_softmax_grad(ws.probs.data(), ws.probs_d.data(),
                                   ws.scores.data(), s, s, d_.alpha);
      // dQ = dS K; dK = dSᵀ Q.
      kernels::gemm(ws.scores.data(), c.k + c.at(i), dq.data() + c.at(i), s,
                    c.hd, s, /*trans_a=*/false, /*trans_b=*/false);
      kernels::gemm(ws.scores.data(), c.q + c.at(i), dk.data() + c.at(i), s,
                    c.hd, s, /*trans_a=*/true, /*trans_b=*/false);
    }
    return {dq, dk, dv};
  }

  void release_saved() override {
    q_.reset();
    k_.reset();
    v_.reset();
    // Drop a prefetched slice that was never consumed (the node's
    // output received no gradient).
    front_ = SliceWorkspace{};
    front_ready_ = false;
  }

 private:
  CoreView view() const {
    const Tensor& q = q_.get();
    return {q.data(), k_.get().data(), v_.get().data(), q.dim(1), q.dim(2)};
  }

  ag::SavedTensor q_, k_, v_;
  AttnCoreDims d_;
  SliceWorkspace front_;  // slice 0's state once prefetched
  bool front_ready_ = false;
};

}  // namespace

ag::Var streamed_attention_core(const ag::Var& q, const ag::Var& k,
                                const ag::Var& v, const AttnCoreDims& d) {
  const Tensor& qv = q.value();
  MLS_CHECK(d.dropout_p >= 0.f && d.dropout_p < 1.f)
      << "dropout p=" << d.dropout_p;
  MLS_CHECK_EQ(qv.ndim(), 3);
  MLS_CHECK(k.value().shape() == qv.shape() && v.value().shape() == qv.shape())
      << "streamed attention core wants equal [b·a/t, s, d] q, k, v";
  MLS_CHECK_EQ(qv.dim(0), d.batch * d.heads_local);
  MLS_CHECK_EQ(qv.dim(1), d.s_full);
  const CoreView c{qv.data(), k.value().data(), v.value().data(), qv.dim(1),
                   qv.dim(2)};
  Tensor out = Tensor::empty(qv.shape(), qv.dtype());
  SliceWorkspace ws = SliceWorkspace::make(c.s, qv.dtype(), false);
  for (int64_t i = 0; i < qv.dim(0); ++i) {
    const float* probs_d = slice_forward(c, d, i, ws);
    kernels::gemm(probs_d, c.v + c.at(i), out.data() + c.at(i), c.s, c.hd, c.s);
  }
  std::shared_ptr<ag::Node> node;
  if (ag::GradMode::enabled() &&
      (q.requires_grad() || k.requires_grad() || v.requires_grad())) {
    node = std::make_shared<StreamedAttentionCoreNode>(q, k, v, d);
  }
  return ag::make_output(std::move(out), std::move(node), {q, k, v});
}

// ------------------------------------------------- shared default stages

ag::Var ParallelPlan::attention_core(const ag::Var& q, const ag::Var& k,
                                     const ag::Var& v,
                                     const AttnCoreDims& d) const {
  ag::Var scores = ag::bmm(q, k, /*trans_b=*/true);
  ag::Var probs = ag::scaled_softmax(scores, d.alpha, d.causal);
  ag::Var probs_d = ag::dropout(probs, d.dropout_p, d.seed, d.mask_map());
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
    Tensor g = p.grad();
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
    return ag::scaled_softmax_dropout_bmm(scores, v, d.alpha, d.causal,
                                          d.dropout_p, d.seed, d.mask_map());
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
