// Tests for the autograd engine: gradient correctness of composed
// graphs, activation-memory accounting, and checkpoint (recompute)
// semantics — replay exactness, memory reduction, and gradient
// equivalence.
#include <gtest/gtest.h>

#include "autograd/checkpoint.h"
#include "autograd/engine.h"
#include "autograd/functions.h"
#include "autograd/node.h"
#include "common/memtracker.h"

namespace mls::ag {
namespace {

class AutogradTest : public ::testing::Test {
 protected:
  void SetUp() override { MemoryTracker::instance().reset(); }
};

// Computes loss = sum(elementwise_weights * f(x)) numerically for grad checks.
double weighted_sum(const Tensor& t, const Tensor& w) {
  double acc = 0;
  for (int64_t i = 0; i < t.numel(); ++i) acc += t.data()[i] * w.data()[i];
  return acc;
}

TEST_F(AutogradTest, MatmulGradientsNumerical) {
  Rng rng(1);
  Tensor xv = Tensor::randn(Shape{{3, 4}}, rng);
  Tensor wv = Tensor::randn(Shape{{4, 5}}, rng);
  Tensor dy = Tensor::randn(Shape{{3, 5}}, rng);

  Var x(xv.clone(), true);
  Var w = Var::param(wv.clone(), "w");
  Var y = matmul(x, w);
  backward(y, dy);

  auto loss = [&](const Tensor& xx, const Tensor& ww) {
    return weighted_sum(ops::matmul(xx, ww), dy);
  };
  const float eps = 1e-3f;
  for (int i = 0; i < 12; ++i) {
    Tensor xp = xv.clone();
    xp.data()[i] += eps;
    Tensor xm = xv.clone();
    xm.data()[i] -= eps;
    EXPECT_NEAR(x.grad().data()[i], (loss(xp, wv) - loss(xm, wv)) / (2 * eps), 1e-2);
  }
  for (int i = 0; i < 20; ++i) {
    Tensor wp = wv.clone();
    wp.data()[i] += eps;
    Tensor wm = wv.clone();
    wm.data()[i] -= eps;
    EXPECT_NEAR(w.grad().data()[i], (loss(xv, wp) - loss(xv, wm)) / (2 * eps), 1e-2);
  }
}

TEST_F(AutogradTest, MatmulTransBGradients) {
  Rng rng(2);
  Tensor xv = Tensor::randn(Shape{{3, 4}}, rng);
  Tensor wv = Tensor::randn(Shape{{5, 4}}, rng);  // used as w^T
  Tensor dy = Tensor::randn(Shape{{3, 5}}, rng);
  Var x(xv.clone(), true);
  Var w = Var::param(wv.clone());
  Var y = matmul(x, w, /*trans_b=*/true);
  backward(y, dy);
  auto loss = [&](const Tensor& xx, const Tensor& ww) {
    return weighted_sum(ops::matmul(xx, ww, false, true), dy);
  };
  const float eps = 1e-3f;
  for (int i = 0; i < 12; ++i) {
    Tensor xp = xv.clone();
    xp.data()[i] += eps;
    Tensor xm = xv.clone();
    xm.data()[i] -= eps;
    EXPECT_NEAR(x.grad().data()[i], (loss(xp, wv) - loss(xm, wv)) / (2 * eps), 1e-2);
  }
  for (int i = 0; i < 20; ++i) {
    Tensor wp = wv.clone();
    wp.data()[i] += eps;
    Tensor wm = wv.clone();
    wm.data()[i] -= eps;
    EXPECT_NEAR(w.grad().data()[i], (loss(xv, wp) - loss(xv, wm)) / (2 * eps), 1e-2);
  }
}

TEST_F(AutogradTest, BmmTransBGradients) {
  Rng rng(3);
  Tensor av = Tensor::randn(Shape{{2, 3, 4}}, rng);
  Tensor bv = Tensor::randn(Shape{{2, 3, 4}}, rng);
  Tensor dy = Tensor::randn(Shape{{2, 3, 3}}, rng);
  Var a(av.clone(), true);
  Var b(bv.clone(), true);
  Var y = bmm(a, b, /*trans_b=*/true);
  backward(y, dy);
  auto loss = [&](const Tensor& aa, const Tensor& bb) {
    return weighted_sum(ops::bmm(aa, bb, false, true), dy);
  };
  const float eps = 1e-3f;
  for (int i = 0; i < 24; ++i) {
    Tensor ap = av.clone();
    ap.data()[i] += eps;
    Tensor am = av.clone();
    am.data()[i] -= eps;
    EXPECT_NEAR(a.grad().data()[i], (loss(ap, bv) - loss(am, bv)) / (2 * eps), 1e-2);
    Tensor bp = bv.clone();
    bp.data()[i] += eps;
    Tensor bm = bv.clone();
    bm.data()[i] -= eps;
    EXPECT_NEAR(b.grad().data()[i], (loss(av, bp) - loss(av, bm)) / (2 * eps), 1e-2);
  }
}

TEST_F(AutogradTest, FanOutAccumulatesGradients) {
  // y = x + x: dy/dx = 2.
  Var x(Tensor::full(Shape{{4}}, 3.f), true);
  Var y = add(x, x);
  backward(y);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad().data()[i], 2.f);
}

TEST_F(AutogradTest, ChainWithResidualAndLayerNorm) {
  // A transformer-ish chain: layernorm -> matmul -> gelu -> residual.
  Rng rng(4);
  const int rows = 4, h = 6;
  Tensor xv = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor wv = Tensor::randn(Shape{{h, h}}, rng, 0.4f);
  Tensor gv = Tensor::randn(Shape{{h}}, rng);
  Tensor bv = Tensor::randn(Shape{{h}}, rng);
  Tensor dy = Tensor::randn(Shape{{rows, h}}, rng);

  auto forward_val = [&](const Tensor& xx) {
    auto ln = ops::layernorm(xx, gv, bv);
    Tensor z = ops::gelu(ops::matmul(ln.y, wv));
    return ops::add(z, xx);
  };

  Var x(xv.clone(), true);
  Var w = Var::param(wv.clone());
  Var gamma = Var::param(gv.clone());
  Var beta = Var::param(bv.clone());
  Var out = add(gelu(matmul(layernorm(x, gamma, beta), w)), x);
  backward(out, dy);

  const float eps = 1e-3f;
  for (int i = 0; i < rows * h; ++i) {
    Tensor xp = xv.clone();
    xp.data()[i] += eps;
    Tensor xm = xv.clone();
    xm.data()[i] -= eps;
    const double num =
        (weighted_sum(forward_val(xp), dy) - weighted_sum(forward_val(xm), dy)) /
        (2 * eps);
    EXPECT_NEAR(x.grad().data()[i], num, 5e-2) << "i=" << i;
  }
}

TEST_F(AutogradTest, SoftmaxDropoutChainGradient) {
  Rng rng(5);
  Tensor xv = Tensor::randn(Shape{{2, 5}}, rng);
  Tensor dy = Tensor::randn(Shape{{2, 5}}, rng);
  const uint64_t seed = 77;
  const auto map = ops::IndexMap::identity(Shape{{2, 5}});

  Var x(xv.clone(), true);
  Var y = dropout(softmax(x), 0.3f, seed, map);
  backward(y, dy);

  auto forward_val = [&](const Tensor& xx) {
    Tensor sm = ops::softmax_lastdim(xx);
    return ops::dropout_stateless(sm, 0.3f, seed, map).y;
  };
  const float eps = 1e-3f;
  for (int i = 0; i < 10; ++i) {
    Tensor xp = xv.clone();
    xp.data()[i] += eps;
    Tensor xm = xv.clone();
    xm.data()[i] -= eps;
    const double num =
        (weighted_sum(forward_val(xp), dy) - weighted_sum(forward_val(xm), dy)) /
        (2 * eps);
    EXPECT_NEAR(x.grad().data()[i], num, 1e-2);
  }
}

TEST_F(AutogradTest, StructuralOpsRoundTripGradient) {
  Rng rng(7);
  Tensor xv = Tensor::randn(Shape{{4, 2, 6}}, rng);
  Var x(xv.clone(), true);
  auto parts = chunk(x, 3, /*dim=*/2);
  Var out = reshape(parts[1], Shape{{4 * 2 * 2}});
  Tensor dy = Tensor::randn(Shape{{16}}, rng);
  backward(out, dy);
  // The gradient is dy scattered back into the middle chunk (columns
  // 2..3 of the last axis) and zero everywhere else.
  ASSERT_TRUE(x.has_grad());
  const float* g = x.grad().data();
  for (int64_t row = 0; row < 4 * 2; ++row) {
    for (int64_t col = 0; col < 6; ++col) {
      const float want =
          (col == 2 || col == 3) ? dy.data()[row * 2 + col - 2] : 0.f;
      EXPECT_EQ(g[row * 6 + col], want) << row << "," << col;
    }
  }
}

// ------------------------------------------------------ memory tracking

TEST_F(AutogradTest, TrackerChargesSavedTensors) {
  auto& mt = MemoryTracker::instance();
  Rng rng(8);
  Var x(Tensor::randn(Shape{{10, 8}}, rng), true);  // F16: 2 bytes/elem
  Var w = Var::param(Tensor::randn(Shape{{8, 8}}, rng));
  EXPECT_EQ(mt.current_bytes(), 0);
  Var y = matmul(x, w);
  // x saved (counted, 160 bytes); w saved but uncounted (parameter).
  EXPECT_EQ(mt.current_major_bytes(), 10 * 8 * 2);
  Var g = gelu(y);
  EXPECT_EQ(mt.current_major_bytes(), 2 * 10 * 8 * 2);  // + gelu input
  backward(g, Tensor::full(Shape{{10, 8}}, 1.f));
  // Backward released everything.
  EXPECT_EQ(mt.current_bytes(), 0);
  EXPECT_GE(mt.peak_bytes(), 2 * 10 * 8 * 2);
}

TEST_F(AutogradTest, DropoutMaskChargedAtOneByte) {
  auto& mt = MemoryTracker::instance();
  Rng rng(9);
  Var x(Tensor::randn(Shape{{16, 4}}, rng), true);
  Var y = dropout(x, 0.1f, 1, ops::IndexMap::identity(Shape{{16, 4}}));
  EXPECT_EQ(mt.current_major_bytes(), 64);  // 64 elements * 1 byte
  backward(y, Tensor::full(Shape{{16, 4}}, 1.f));
  EXPECT_EQ(mt.current_bytes(), 0);
}

TEST_F(AutogradTest, LayerNormMinorBuffersTrackedSeparately) {
  auto& mt = MemoryTracker::instance();
  Rng rng(10);
  const int rows = 6, h = 16;
  Var x(Tensor::randn(Shape{{rows, h}}, rng), true);
  Var gamma = Var::param(Tensor::full(Shape{{h}}, 1.f));
  Var beta = Var::param(Tensor::zeros(Shape{{h}}));
  Var y = layernorm(x, gamma, beta);
  EXPECT_EQ(mt.current_major_bytes(), rows * h * 2);   // input, fp16
  EXPECT_EQ(mt.current_minor_bytes(), 2 * rows * 4);   // mean + rstd, fp32
  backward(y, Tensor::full(Shape{{rows, h}}, 1.f));
  EXPECT_EQ(mt.current_bytes(), 0);
}

// SavedTensor is move-only: a charge has exactly one owner, and every
// move keeps the tracker's major/minor split intact.
TEST_F(AutogradTest, SavedTensorMoveConstructKeepsOneCharge) {
  auto& mt = MemoryTracker::instance();
  Tensor t = Tensor::zeros(Shape{{3, 4}});
  const int64_t bytes = t.logical_bytes();
  {
    SavedTensor a(t, /*counted=*/true);
    EXPECT_EQ(mt.current_major_bytes(), bytes);
    SavedTensor b(std::move(a));
    EXPECT_EQ(mt.current_major_bytes(), bytes);
    EXPECT_FALSE(a.defined());
    EXPECT_TRUE(b.defined());
    a.reset();  // the moved-from shell owns nothing to release
    EXPECT_EQ(mt.current_major_bytes(), bytes);
  }
  EXPECT_EQ(mt.current_bytes(), 0);
}

TEST_F(AutogradTest, SavedTensorMoveAssignReleasesOldCharge) {
  auto& mt = MemoryTracker::instance();
  Tensor small = Tensor::zeros(Shape{{2, 4}});
  Tensor big = Tensor::zeros(Shape{{8, 4}});
  {
    SavedTensor a(small, /*counted=*/true);
    SavedTensor b(big, /*counted=*/true);
    EXPECT_EQ(mt.current_major_bytes(),
              small.logical_bytes() + big.logical_bytes());
    b = std::move(a);  // b's old (big) charge is released
    EXPECT_EQ(mt.current_major_bytes(), small.logical_bytes());
    EXPECT_EQ(b.get().numel(), small.numel());
  }
  EXPECT_EQ(mt.current_bytes(), 0);
}

TEST_F(AutogradTest, SavedTensorMinorChargeStaysMinorThroughMove) {
  auto& mt = MemoryTracker::instance();
  Tensor t = Tensor::zeros(Shape{{5}}, Dtype::F32);
  const int64_t bytes = t.logical_bytes();
  {
    SavedTensor m(t, /*counted=*/true, /*major=*/false);
    SavedTensor moved(std::move(m));
    SavedTensor assigned;
    assigned = std::move(moved);
    EXPECT_EQ(mt.current_major_bytes(), 0);
    EXPECT_EQ(mt.current_minor_bytes(), bytes);
  }
  EXPECT_EQ(mt.current_minor_bytes(), 0);
  EXPECT_EQ(mt.current_bytes(), 0);
}

TEST_F(AutogradTest, NoGradModeSavesNothing) {
  auto& mt = MemoryTracker::instance();
  Rng rng(11);
  Var x(Tensor::randn(Shape{{10, 8}}, rng), true);
  Var w = Var::param(Tensor::randn(Shape{{8, 8}}, rng));
  {
    NoGradGuard ng;
    Var y = gelu(matmul(x, w));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_EQ(y.grad_fn(), nullptr);
  }
  EXPECT_EQ(mt.current_bytes(), 0);
}

// ---------------------------------------------------------- checkpoint

Var mlp_block(const Var& x, const Var& w1, const Var& w2, uint64_t seed) {
  Var h = gelu(matmul(x, w1));
  Var y = matmul(h, w2);
  return dropout(y, 0.2f, seed, ops::IndexMap::identity(y.value().shape()));
}

TEST_F(AutogradTest, CheckpointGradsMatchNoCheckpoint) {
  Rng rng(12);
  Tensor xv = Tensor::randn(Shape{{6, 8}}, rng);
  Tensor w1v = Tensor::randn(Shape{{8, 32}}, rng, 0.3f);
  Tensor w2v = Tensor::randn(Shape{{32, 8}}, rng, 0.3f);
  Tensor dy = Tensor::randn(Shape{{6, 8}}, rng);

  // Reference: no checkpoint.
  Var x1(xv.clone(), true);
  Var w1a = Var::param(w1v.clone());
  Var w2a = Var::param(w2v.clone());
  Var out1 = mlp_block(x1, w1a, w2a, 99);
  backward(out1, dy);

  // Checkpointed.
  Var x2(xv.clone(), true);
  Var w1b = Var::param(w1v.clone());
  Var w2b = Var::param(w2v.clone());
  Var out2 = checkpoint(
      [](const std::vector<Var>& ins) {
        return mlp_block(ins[0], ins[1], ins[2], 99);
      },
      {x2, w1b, w2b});
  backward(out2, dy);

  EXPECT_TRUE(out1.value().allclose(out2.value(), 1e-6f, 1e-7f));
  EXPECT_TRUE(x1.grad().allclose(x2.grad(), 1e-5f, 1e-7f));
  EXPECT_TRUE(w1a.grad().allclose(w1b.grad(), 1e-5f, 1e-7f));
  EXPECT_TRUE(w2a.grad().allclose(w2b.grad(), 1e-5f, 1e-7f));
}

TEST_F(AutogradTest, CheckpointStoresOnlyInputs) {
  auto& mt = MemoryTracker::instance();
  Rng rng(13);
  const int64_t rows = 6, h = 8, ff = 32;
  Tensor xv = Tensor::randn(Shape{{rows, h}}, rng);
  Var w1 = Var::param(Tensor::randn(Shape{{h, ff}}, rng, 0.3f));
  Var w2 = Var::param(Tensor::randn(Shape{{ff, h}}, rng, 0.3f));

  // Without checkpoint: gelu input (rows*ff) + matmul inputs + mask.
  Var xa(xv.clone(), true);
  Var ya = mlp_block(xa, w1, w2, 5);
  const int64_t full_bytes = mt.current_major_bytes();
  backward(ya, Tensor::full(ya.value().shape(), 1.f));
  EXPECT_EQ(mt.current_bytes(), 0);

  // With checkpoint: only the block input x (rows*h fp16).
  Var xb(xv.clone(), true);
  Var yb = checkpoint(
      [&](const std::vector<Var>& ins) { return mlp_block(ins[0], w1, w2, 5); },
      {xb});
  EXPECT_EQ(mt.current_major_bytes(), rows * h * 2);
  EXPECT_LT(mt.current_major_bytes(), full_bytes);
  backward(yb, Tensor::full(yb.value().shape(), 1.f));
  EXPECT_EQ(mt.current_bytes(), 0);
}

TEST_F(AutogradTest, CheckpointReplayReproducesDropoutExactly) {
  // With stateless dropout, the checkpoint output (first forward) and
  // the replayed forward in backward see the same mask; gradients of a
  // pure-dropout region therefore match the no-checkpoint path exactly.
  Rng rng(14);
  Tensor xv = Tensor::randn(Shape{{128}}, rng);
  Tensor dy = Tensor::full(Shape{{128}}, 1.f);
  const auto map = ops::IndexMap::identity(Shape{{128}});

  Var x1(xv.clone(), true);
  Var y1 = dropout(x1, 0.5f, 321, map);
  backward(y1, dy);

  Var x2(xv.clone(), true);
  Var y2 = checkpoint(
      [&](const std::vector<Var>& ins) { return dropout(ins[0], 0.5f, 321, map); },
      {x2});
  backward(y2, dy);

  EXPECT_TRUE(y1.value().allclose(y2.value(), 0.f, 0.f));  // bitwise
  EXPECT_TRUE(x1.grad().allclose(x2.grad(), 0.f, 0.f));
}

TEST_F(AutogradTest, NestedCheckpointInnerDegenerates) {
  // An inner checkpoint under an outer one must not double-store.
  Rng rng(15);
  Tensor xv = Tensor::randn(Shape{{4, 8}}, rng);
  Var w = Var::param(Tensor::randn(Shape{{8, 8}}, rng, 0.3f));
  Var x(xv.clone(), true);
  auto inner = [&](const std::vector<Var>& ins) { return gelu(matmul(ins[0], w)); };
  auto outer = [&](const std::vector<Var>& ins) {
    Var mid = checkpoint(inner, {ins[0]});
    return matmul(mid, w);
  };
  Var y = checkpoint(outer, {x});
  auto& mt = MemoryTracker::instance();
  EXPECT_EQ(mt.current_major_bytes(), 4 * 8 * 2);  // only outer input
  backward(y, Tensor::full(y.value().shape(), 1.f));
  EXPECT_EQ(mt.current_bytes(), 0);
  EXPECT_TRUE(x.has_grad());
}

// Stateless dropout shard consistency: mask of a shard equals the
// corresponding region of the full mask.
TEST_F(AutogradTest, StatelessDropoutShardMatchesGlobal) {
  Rng rng(16);
  const Shape global{{8, 4, 6}};
  Tensor x = Tensor::randn(global, rng);
  auto full = ops::dropout_stateless(x, 0.4f, 9, ops::IndexMap::identity(global));
  // Shard along dim 0 into 4 parts (sequence parallelism pattern).
  for (int r = 0; r < 4; ++r) {
    Tensor xs = ops::slice(x, 0, r * 2, 2);
    auto shard = ops::dropout_stateless(xs, 0.4f, 9,
                                        ops::IndexMap::shard(global, 0, r * 2, 2));
    Tensor expect = ops::slice(full.y, 0, r * 2, 2);
    EXPECT_TRUE(shard.y.allclose(expect, 0.f, 0.f)) << "rank " << r;
  }
  // Shard along an inner dim (tensor-parallel head split pattern).
  for (int r = 0; r < 3; ++r) {
    Tensor xs = ops::slice(x, 2, r * 2, 2);
    auto shard = ops::dropout_stateless(xs, 0.4f, 9,
                                        ops::IndexMap::shard(global, 2, r * 2, 2));
    Tensor expect = ops::slice(full.y, 2, r * 2, 2);
    EXPECT_TRUE(shard.y.allclose(expect, 0.f, 0.f)) << "rank " << r;
  }
}

}  // namespace
}  // namespace mls::ag
