#include "core/collectives.h"

#include <cmath>

#include "analysis/ledger.h"
#include "autograd/node.h"
#include "core/env.h"
#include "tensor/ops.h"

// Every collective below runs under an analysis::SiteGuard so the comm
// analyzer's mismatch reports and flight-recorder dumps name the
// paper-level operator (f/f̄, g/ḡ, ...) that issued the op, not just
// "all_reduce somewhere".

namespace mls::core {

using ag::make_output;
using ag::Node;
using ag::SavedTensor;
using ag::Var;

namespace {

// ------------------------------------------------------------- f / f̄ / g / ḡ

class CopyToTpNode : public Node {
 public:
  explicit CopyToTpNode(comm::Comm tp) : tp_(std::move(tp)) {}
  const char* name() const override { return "f(copy_to_tp)"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    analysis::SiteGuard sg("f(copy_to_tp).bwd");
    Tensor g = grad_out.clone();
    tp_.all_reduce(g);
    return {g};
  }

 private:
  comm::Comm tp_;
};

class ReduceFromTpNode : public Node {
 public:
  const char* name() const override { return "f̄(reduce_from_tp)"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return {grad_out};
  }
};

class GatherFromSpNode : public Node {
 public:
  explicit GatherFromSpNode(comm::Comm tp) : tp_(std::move(tp)) {}
  const char* name() const override { return "g(gather_from_sp)"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    analysis::SiteGuard sg("g(gather_from_sp).bwd");
    return {tp_.reduce_scatter(grad_out, 0)};
  }

 private:
  comm::Comm tp_;
};

class ScatterToSpNode : public Node {
 public:
  explicit ScatterToSpNode(comm::Comm tp) : tp_(std::move(tp)) {}
  const char* name() const override { return "ḡ(scatter_to_sp)"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    analysis::SiteGuard sg("ḡ(scatter_to_sp).bwd");
    return {tp_.all_gather(grad_out, 0)};
  }

 private:
  comm::Comm tp_;
};

}  // namespace

Var copy_to_tensor_parallel(const Var& x, comm::Comm tp) {
  // Forward is the identity; the value tensor is shared, not copied.
  return make_output(x.value(), std::make_shared<CopyToTpNode>(std::move(tp)),
                     {x});
}

Var reduce_from_tensor_parallel(const Var& x, comm::Comm tp) {
  analysis::SiteGuard sg("f̄(reduce_from_tp).fwd");
  Tensor y = x.value().clone();
  tp.all_reduce(y);
  return make_output(std::move(y), std::make_shared<ReduceFromTpNode>(), {x});
}

Var gather_from_sequence_parallel(const Var& x, comm::Comm tp) {
  analysis::SiteGuard sg("g(gather_from_sp).fwd");
  Tensor y = tp.all_gather(x.value(), 0);
  return make_output(std::move(y), std::make_shared<GatherFromSpNode>(std::move(tp)),
                     {x});
}

Var scatter_to_sequence_parallel(const Var& x, comm::Comm tp) {
  analysis::SiteGuard sg("ḡ(scatter_to_sp).fwd");
  Tensor y = tp.reduce_scatter(x.value(), 0);
  return make_output(std::move(y), std::make_shared<ScatterToSpNode>(std::move(tp)),
                     {x});
}

// ------------------------------------------------------ sp_gathered_matmul

namespace {

class SpGatheredMatmulNode : public Node {
 public:
  SpGatheredMatmulNode(const Var& x_shard, const Var& w, comm::Comm tp,
                       bool trans_b, bool sharded_save, const Tensor& x_full)
      : tp_(std::move(tp)), trans_b_(trans_b), sharded_save_(sharded_save) {
    saved_x_ = SavedTensor(sharded_save_ ? x_shard.value() : x_full,
                           !x_shard.is_param());
    saved_w_ = SavedTensor(w.value(), !w.is_param());
  }
  const char* name() const override { return "sp_gathered_matmul"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    // §4.2.2: "we store only the Y_i^s part ... and perform an extra
    // all-gather in the backward pass", overlapped with the dY·Wᵀ GEMM
    // on real hardware.
    analysis::SiteGuard sg("sp_gathered_matmul.bwd:regather");
    Tensor x_full =
        sharded_save_ ? tp_.all_gather(saved_x_.get(), 0) : saved_x_.get().clone();

    // dX (full) = dY · Wᵀ, then ḡ-style reduce-scatter back to shards.
    analysis::SiteGuard sg_dx("sp_gathered_matmul.bwd:dx");
    Tensor dx_full = ops::matmul(grad_out, saved_w_.get(), false, !trans_b_);
    Tensor dx_shard = tp_.reduce_scatter(std::move(dx_full), 0);

    // dW = Xᵀ · dY (or dYᵀ · X when the forward used Wᵀ).
    const int64_t k = x_full.dim(-1);
    Tensor x2d = x_full.reshape(Shape{{x_full.numel() / k, k}});
    const int64_t n = grad_out.dim(-1);
    Tensor dy2d = grad_out.reshape(Shape{{grad_out.numel() / n, n}});
    Tensor dw = trans_b_ ? ops::matmul(dy2d, x2d, /*trans_a=*/true)
                         : ops::matmul(x2d, dy2d, /*trans_a=*/true);
    return {dx_shard, dw};
  }
  void release_saved() override {
    saved_x_.reset();
    saved_w_.reset();
  }

 private:
  comm::Comm tp_;
  bool trans_b_, sharded_save_;
  SavedTensor saved_x_, saved_w_;
};

}  // namespace

Var sp_gathered_matmul(const Var& x_shard, const Var& w, comm::Comm tp,
                       bool trans_b, bool sharded_save) {
  analysis::SiteGuard sg("sp_gathered_matmul.fwd");
  Tensor x_full = tp.all_gather(x_shard.value(), 0);
  Tensor y = ops::matmul(x_full, w.value(), false, trans_b);
  std::shared_ptr<Node> node;
  if (ag::GradMode::enabled() && (x_shard.requires_grad() || w.requires_grad())) {
    node = std::make_shared<SpGatheredMatmulNode>(x_shard, w, std::move(tp),
                                                  trans_b, sharded_save, x_full);
  }
  return make_output(std::move(y), std::move(node), {x_shard, w});
}

// ------------------------------------------------- vocab-parallel embedding

namespace {

class VocabParallelEmbeddingNode : public Node {
 public:
  VocabParallelEmbeddingNode(Shape table_shape, std::vector<int64_t> ids,
                             int64_t vocab_offset, comm::Comm tp, bool sp)
      : table_shape_(std::move(table_shape)),
        ids_(std::move(ids)),
        vocab_offset_(vocab_offset),
        tp_(std::move(tp)),
        sp_(sp) {}
  const char* name() const override { return "vocab_parallel_embedding"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    // Under sequence parallelism the output (and thus grad_out) is
    // sequence-sharded; the conjugate of the forward reduce-scatter is
    // an all-gather. Without SP the output was replicated (all-reduce
    // forward), whose conjugate is the identity.
    analysis::SiteGuard sg("vocab_embedding.bwd");
    Tensor dy_full = sp_ ? tp_.all_gather(grad_out, 0) : grad_out;
    const int64_t h = table_shape_.dim(1);
    Tensor dy2d = dy_full.reshape(Shape{{dy_full.numel() / h, h}});
    Tensor dtable = Tensor::zeros(table_shape_, Dtype::F32);
    const int64_t v_local = table_shape_.dim(0);
    float* tp_data = dtable.data();
    const float* gp = dy2d.data();
    for (size_t i = 0; i < ids_.size(); ++i) {
      const int64_t local = ids_[i] - vocab_offset_;
      if (local < 0 || local >= v_local) continue;
      float* row = tp_data + local * h;
      const float* grow = gp + static_cast<int64_t>(i) * h;
      for (int64_t j = 0; j < h; ++j) row[j] += grow[j];
    }
    return {dtable};
  }

 private:
  Shape table_shape_;
  std::vector<int64_t> ids_;
  int64_t vocab_offset_;
  comm::Comm tp_;
  bool sp_;
};

}  // namespace

Var vocab_parallel_embedding(const Var& table_shard,
                             const std::vector<int64_t>& ids, int64_t s,
                             int64_t b, int64_t vocab_offset, comm::Comm tp,
                             bool sequence_sharded) {
  const int64_t v_local = table_shard.value().dim(0);
  const int64_t h = table_shard.value().dim(1);
  MLS_CHECK_EQ(static_cast<int64_t>(ids.size()), s * b);

  // Masked local lookup: tokens owned by other ranks contribute zeros.
  Tensor out = Tensor::zeros(Shape{{s, b, h}});
  const float* table = table_shard.value().data();
  float* op = out.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t local = ids[i] - vocab_offset;
    if (local < 0 || local >= v_local) continue;
    const float* row = table + local * h;
    float* orow = op + static_cast<int64_t>(i) * h;
    for (int64_t j = 0; j < h; ++j) orow[j] = row[j];
  }

  Tensor reduced;
  analysis::SiteGuard sg("vocab_embedding.fwd");
  if (sequence_sharded) {
    reduced = tp.reduce_scatter(std::move(out), 0);  // ḡ: [s/t, b, h]
  } else {
    tp.all_reduce(out);  // f̄: replicated [s, b, h]
    reduced = std::move(out);
  }

  std::shared_ptr<Node> node;
  if (ag::GradMode::enabled() && table_shard.requires_grad()) {
    node = std::make_shared<VocabParallelEmbeddingNode>(
        table_shard.value().shape(), ids, vocab_offset, std::move(tp),
        sequence_sharded);
  }
  return make_output(std::move(reduced), std::move(node), {table_shard});
}

// --------------------------------------------- vocab-parallel cross-entropy

namespace {

class VocabParallelCrossEntropyNode : public Node {
 public:
  VocabParallelCrossEntropyNode(Tensor softmax_local,
                                std::vector<int64_t> targets,
                                int64_t vocab_offset)
      : saved_softmax_(std::move(softmax_local), "ce_softmax", /*counted=*/true),
        targets_(std::move(targets)),
        vocab_offset_(vocab_offset) {}
  const char* name() const override { return "vocab_parallel_cross_entropy"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    const Tensor& sm = saved_softmax_.get();
    const int64_t n = sm.dim(0);
    const int64_t vl = sm.dim(1);
    Tensor dlogits = sm.clone();
    float* dp = dlogits.data();
    for (int64_t i = 0; i < n; ++i) {
      const int64_t local = targets_[static_cast<size_t>(i)] - vocab_offset_;
      if (local >= 0 && local < vl) dp[i * vl + local] -= 1.0f;
    }
    dlogits.mul_(grad_out.item() / static_cast<float>(n));
    return {dlogits};
  }
  void release_saved() override { saved_softmax_.reset(); }

 private:
  SavedTensor saved_softmax_;
  std::vector<int64_t> targets_;
  int64_t vocab_offset_;
};

}  // namespace

Var vocab_parallel_cross_entropy(const Var& logits_local,
                                 std::vector<int64_t> targets,
                                 int64_t vocab_offset, comm::Comm tp) {
  MLS_CHECK_EQ(logits_local.value().ndim(), 2);
  const int64_t n = logits_local.value().dim(0);
  const int64_t vl = logits_local.value().dim(1);
  MLS_CHECK_EQ(n, static_cast<int64_t>(targets.size()));
  const float* lp = logits_local.value().data();
  // One guard covers all three all-reduces (max / sum-exp / target).
  analysis::SiteGuard sg("vocab_ce.fwd");

  // 1. Global row max (stable softmax): local max + max-all-reduce.
  Tensor row_max = Tensor::full(Shape{{n}}, -INFINITY, Dtype::F32);
  for (int64_t i = 0; i < n; ++i) {
    float m = -INFINITY;
    for (int64_t j = 0; j < vl; ++j) m = std::max(m, lp[i * vl + j]);
    row_max.data()[i] = m;
  }
  tp.all_reduce(row_max, comm::ReduceOp::Max);

  // 2. Local exp + global sum-exp.
  Tensor exp_local = Tensor::empty(Shape{{n, vl}}, Dtype::F32);
  Tensor sum_exp = Tensor::zeros(Shape{{n}}, Dtype::F32);
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0;
    for (int64_t j = 0; j < vl; ++j) {
      const float e = std::exp(lp[i * vl + j] - row_max.data()[i]);
      exp_local.data()[i * vl + j] = e;
      acc += e;
    }
    sum_exp.data()[i] = static_cast<float>(acc);
  }
  tp.all_reduce(sum_exp);

  // 3. Target logit (owned by exactly one rank) + sum-all-reduce.
  Tensor target_logit = Tensor::zeros(Shape{{n}}, Dtype::F32);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t local = targets[static_cast<size_t>(i)] - vocab_offset;
    if (local >= 0 && local < vl) target_logit.data()[i] = lp[i * vl + local];
  }
  tp.all_reduce(target_logit);

  // 4. Mean NLL and the local softmax saved for backward.
  double loss = 0;
  for (int64_t i = 0; i < n; ++i) {
    loss += std::log(sum_exp.data()[i]) + row_max.data()[i] - target_logit.data()[i];
    const float inv = 1.0f / sum_exp.data()[i];
    for (int64_t j = 0; j < vl; ++j) exp_local.data()[i * vl + j] *= inv;
  }
  const float mean_loss = static_cast<float>(loss / static_cast<double>(n));

  std::shared_ptr<Node> node;
  if (ag::GradMode::enabled() && logits_local.requires_grad()) {
    node = std::make_shared<VocabParallelCrossEntropyNode>(
        std::move(exp_local), std::move(targets), vocab_offset);
  }
  return make_output(Tensor::scalar(mean_loss), std::move(node), {logits_local});
}

// ------------------------------------------------------------ add_positional

namespace {

class AddPositionalNode : public Node {
 public:
  const char* name() const override { return "add_positional"; }
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    // dx = dy; dpos = sum over the batch dimension.
    const int64_t s = grad_out.dim(0), b = grad_out.dim(1), h = grad_out.dim(2);
    Tensor dpos = Tensor::zeros(Shape{{s, h}}, Dtype::F32);
    const float* gp = grad_out.data();
    float* pp = dpos.data();
    for (int64_t i = 0; i < s; ++i)
      for (int64_t j = 0; j < b; ++j)
        for (int64_t k = 0; k < h; ++k) pp[i * h + k] += gp[(i * b + j) * h + k];
    return {grad_out, dpos};
  }
};

}  // namespace

Var add_positional(const Var& x, const Var& pos) {
  MLS_CHECK_EQ(x.value().ndim(), 3);
  MLS_CHECK_EQ(pos.value().ndim(), 2);
  const int64_t s = x.value().dim(0), b = x.value().dim(1), h = x.value().dim(2);
  MLS_CHECK_EQ(pos.value().dim(0), s);
  MLS_CHECK_EQ(pos.value().dim(1), h);
  Tensor y = x.value().clone();
  float* yp = y.data();
  const float* pp = pos.value().data();
  for (int64_t i = 0; i < s; ++i)
    for (int64_t j = 0; j < b; ++j)
      for (int64_t k = 0; k < h; ++k) yp[(i * b + j) * h + k] += pp[i * h + k];
  return make_output(std::move(y), std::make_shared<AddPositionalNode>(), {x, pos});
}

const char* recompute_name(Recompute r) {
  switch (r) {
    case Recompute::kNone: return "none";
    case Recompute::kSelective: return "selective";
    case Recompute::kFull: return "full";
  }
  return "?";
}

}  // namespace mls::core
