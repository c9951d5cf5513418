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

ops::IndexMap AttnCoreDims::mask_map(int64_t slice, int64_t s) const {
  const int64_t ss = s * s;
  const int64_t bi = slice / heads_local;
  const int64_t hi = slice % heads_local;
  ops::IndexMap map;
  map.dims = {s, s};
  map.strides = {s, 1};
  map.base = static_cast<int64_t>(rank) * heads_local * ss +
             bi * heads_total * ss + hi * ss;
  return map;
}

namespace {

// The core's operands where the QKV GEMM wrote them: slice i = (bi, hi)
// of Q is the [s, hd] matrix at q_at(i) of the [s, b, 3w] QKV output
// (w = h/t), row stride ld_qkv(); K and V sit w and 2w further. Slice i
// of the [s, b, w] context (and of dctx) is at ctx_at(i), row stride
// ld_ctx(). The s² tensors are [b·a/t, s, s] slices.
struct CoreView {
  const float* qkv;
  int64_t s, b, heads, hd;
  int64_t w() const { return heads * hd; }
  int64_t ld_qkv() const { return b * 3 * w(); }
  int64_t ld_ctx() const { return b * w(); }
  int64_t q_at(int64_t i) const {
    return (i / heads) * 3 * w() + (i % heads) * hd;
  }
  int64_t ctx_at(int64_t i) const {
    return (i / heads) * w() + (i % heads) * hd;
  }
  const float* q(int64_t i) const { return qkv + q_at(i); }
  const float* k(int64_t i) const { return q(i) + w(); }
  const float* v(int64_t i) const { return q(i) + 2 * w(); }
  int64_t sq(int64_t i) const { return i * s * s; }
};

CoreView core_view(const Tensor& qkv, const AttnCoreDims& d) {
  return {qkv.data(), qkv.dim(0), qkv.dim(1), d.heads_local,
          qkv.dim(2) / (3 * d.heads_local)};
}

// n s×s slices (a whole saved tensor, or one slice of workspace), or none.
Tensor slices(int64_t n, int64_t s, Dtype dtype, bool needed) {
  return needed ? Tensor::empty(Shape{{n, s, s}}, dtype) : Tensor();
}

void slice_softmax(const float* scores, float* probs, int64_t s,
                   const AttnCoreDims& d) {
  kernels::scaled_softmax(scores, probs, s, d.causal ? s : 1, s, d.alpha,
                          d.causal);
}

// The triangle a causal core's GEMM computes (kernels.h): the s² operand
// or output past each query row's diagonal is structurally zero.
kernels::Tri tri(const AttnCoreDims& d, kernels::Tri mode) {
  return d.causal ? mode : kernels::Tri::kNone;
}

// Slice i's QKᵀ into scores, scaled softmax into probs and dropout into
// probs_d (which may alias either), drawing the mask when it is not null.
// The same kernels, on the same rows, as ops::bmm / scaled_softmax /
// dropout_stateless over the whole [b·a/t, s, s] tensor; a causal core
// computes only the live triangle, whose bits are the full kernels'.
// The scores' dead tiles stay unwritten (the causal softmax never reads
// them); probs and probs_d are written whole.
void slice_forward(const CoreView& c, const AttnCoreDims& d, int64_t i,
                   float* scores, float* probs, float* probs_d,
                   uint8_t* mask) {
  kernels::gemm(c.q(i), c.k(i), scores, c.s, c.s, c.hd, /*trans_a=*/false,
                /*trans_b=*/true, tri(d, kernels::Tri::kOut), c.ld_qkv(),
                c.ld_qkv(), c.s);
  slice_softmax(scores, probs, c.s, d);
  const ops::IndexMap map = d.mask_map(i, c.s);
  kernels::dropout_stateless(probs, probs_d, mask, map.dims.data(),
                             map.strides.data(),
                             static_cast<int>(map.dims.size()), map.base,
                             d.seed, d.dropout_p, d.causal);
}

// dx = dy · mask / (1 - p) over one s×s slice.
void slice_dropout_grad(const float* dy, const uint8_t* mask, float* dx,
                        int64_t s, const AttnCoreDims& d) {
  kernels::dropout_grad(dy, mask, dx, s, s, s, d.dropout_p, d.causal);
}

class AttentionCoreNode final : public ag::Node {
 public:
  // scores, probs, probs_d, mask: the set's whole saved tensors
  // (undefined where the set leaves one out).
  AttentionCoreNode(const ag::Var& qkv, const AttnCoreDims& d,
                    AttnSaved saved, Tensor scores, Tensor probs,
                    Tensor probs_d, Tensor mask)
      : qkv_(qkv.value(), !qkv.is_param()),
        scores_(std::move(scores), true),
        probs_(std::move(probs), true),
        probs_d_(std::move(probs_d), true),
        mask_(std::move(mask), true),
        d_(d),
        saved_(saved) {}

  const char* name() const override { return "attention_core"; }

  std::vector<Tensor> backward(const Tensor& grad_out) override {
    const Tensor& qkv = qkv_.get();
    const CoreView c = core_view(qkv, d_);
    const int64_t s = c.s;
    // dQ, dK and dV of every slice tile d(QKV) exactly, and every
    // triangle mode writes every element, so it needs no zeroing.
    Tensor dqkv = Tensor::empty(qkv.shape(), qkv.dtype());
    // a holds d(P·dropout), then dS; b the rebuilt P·dropout until dV
    // has read it, then dP. P and the mask get a slice of workspace
    // where the set left them out.
    Tensor a = slices(1, s, qkv.dtype(), true);
    Tensor b = slices(1, s, qkv.dtype(), true);
    Tensor p = slices(1, s, qkv.dtype(), !probs_.defined());
    Tensor m = slices(1, s, Dtype::U8, !mask_.defined());
    for (int64_t i = 0; i < c.b * c.heads; ++i) {
      const float* probs = p.defined() ? p.data() : probs_.get().data() + c.sq(i);
      const uint8_t* mask = m.defined() ? m.u8() : mask_.get().u8() + c.sq(i);
      const float* probs_d = b.data();
      switch (saved_) {
        case AttnSaved::kInputs:
          slice_forward(c, d_, i, a.data(), p.data(), b.data(), m.u8());
          break;
        case AttnSaved::kScores:  // the saved mask re-applies the dropout
          slice_softmax(scores_.get().data() + c.sq(i), p.data(), s, d_);
          slice_dropout_grad(p.data(), mask, b.data(), s, d_);
          break;
        case AttnSaved::kProbs:
          probs_d = probs_d_.get().data() + c.sq(i);
          break;
      }
      const float* dctx = grad_out.data() + c.ctx_at(i);
      float* dq = dqkv.data() + c.q_at(i);
      float* dk = dq + c.w();
      float* dv = dq + 2 * c.w();
      // dV = (P·dropout)ᵀ dctx; dP = dropout'(dctx Vᵀ); dS = softmax'(dP).
      kernels::gemm(probs_d, dctx, dv, s, c.hd, s,
                    /*trans_a=*/true, /*trans_b=*/false,
                    tri(d_, kernels::Tri::kAUpper), s, c.ld_ctx(), c.ld_qkv());
      kernels::gemm(dctx, c.v(i), a.data(), s, s, c.hd, /*trans_a=*/false,
                    /*trans_b=*/true, tri(d_, kernels::Tri::kOut), c.ld_ctx(),
                    c.ld_qkv(), s);
      slice_dropout_grad(a.data(), mask, b.data(), s, d_);
      kernels::scaled_softmax_grad(probs, b.data(), a.data(), s, s, s,
                                   d_.alpha, d_.causal);
      // dQ = dS K; dK = dSᵀ Q.
      kernels::gemm(a.data(), c.k(i), dq, s, c.hd, s, /*trans_a=*/false,
                    /*trans_b=*/false, tri(d_, kernels::Tri::kALower), s,
                    c.ld_qkv(), c.ld_qkv());
      kernels::gemm(a.data(), c.q(i), dk, s, c.hd, s,
                    /*trans_a=*/true, /*trans_b=*/false,
                    tri(d_, kernels::Tri::kAUpper), s, c.ld_qkv(), c.ld_qkv());
    }
    return {dqkv};
  }

  void release_saved() override {
    for (ag::SavedTensor* t : {&qkv_, &scores_, &probs_, &probs_d_, &mask_})
      t->reset();
  }

 private:
  ag::SavedTensor qkv_, scores_, probs_, probs_d_, mask_;
  AttnCoreDims d_;
  AttnSaved saved_;
};

}  // namespace

ag::Var attention_core(const ag::Var& qkv, const AttnCoreDims& d,
                       AttnSaved saved) {
  const Tensor& x = qkv.value();
  MLS_CHECK(d.dropout_p >= 0.f && d.dropout_p < 1.f)
      << "dropout p=" << d.dropout_p;
  MLS_CHECK(x.ndim() == 3 && d.heads_local > 0 &&
            x.dim(2) % (3 * d.heads_local) == 0)
      << "attention core wants the [s, b, 3·heads·d] QKV output for "
      << d.heads_local << " local heads, got " << x.shape().str();
  const bool grad = ag::GradMode::enabled() && qkv.requires_grad();
  if (!grad) saved = AttnSaved::kInputs;
  const CoreView c = core_view(x, d);
  const int64_t nb = c.b * c.heads;
  const Dtype dt = x.dtype();
  Tensor out = Tensor::empty(Shape{{c.s, c.b, c.w()}}, dt);
  // The set's whole saved tensors, and one slice of workspace for the
  // scores or P it does not keep. P·dropout goes over the scores slice
  // (inputs set) or over the P slice (scores set).
  const bool keeps_scores = saved == AttnSaved::kScores;
  const bool keeps_probs = saved == AttnSaved::kProbs;
  Tensor scores = slices(keeps_scores ? nb : 1, c.s, dt, true);
  Tensor probs = slices(keeps_probs ? nb : 1, c.s, dt, true);
  Tensor probs_d = slices(nb, c.s, dt, keeps_probs);
  Tensor mask = slices(nb, c.s, Dtype::U8, saved != AttnSaved::kInputs);
  for (int64_t i = 0; i < nb; ++i) {
    float* sc = scores.data() + (keeps_scores ? c.sq(i) : 0);
    float* pr = probs.data() + (keeps_probs ? c.sq(i) : 0);
    float* pd = keeps_probs ? probs_d.data() + c.sq(i) : keeps_scores ? pr : sc;
    slice_forward(c, d, i, sc, pr, pd,
                  mask.defined() ? mask.u8() + c.sq(i) : nullptr);
    kernels::gemm(pd, c.v(i), out.data() + c.ctx_at(i), c.s, c.hd, c.s,
                  /*trans_a=*/false, /*trans_b=*/false,
                  tri(d, kernels::Tri::kALower), c.s, c.ld_qkv(), c.ld_ctx());
  }
  std::shared_ptr<ag::Node> node;
  if (grad) {
    node = std::make_shared<AttentionCoreNode>(
        qkv, d, saved, keeps_scores ? std::move(scores) : Tensor(),
        keeps_probs ? std::move(probs) : Tensor(), std::move(probs_d),
        std::move(mask));
  }
  return ag::make_output(std::move(out), std::move(node), {qkv});
}

// ------------------------------------------------- shared default stages

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
//     attention core keeps the scores + 1-byte mask (AttnSaved::kScores)
//     and recomputes the softmax output and its dropped copy per slice
//     in backward.
// Per-layer bytes drop from (34sbh + 5as²b)/t to (26sbh + 3as²b)/t.
class FoldedTspPlan final : public SpPlan {
 public:
  const char* name() const override {
    return "folded tensor + sequence parallel";
  }
  PlanKind kind() const override { return PlanKind::kFoldedTsp; }

  AttnSaved attention_saved() const override { return AttnSaved::kScores; }

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
