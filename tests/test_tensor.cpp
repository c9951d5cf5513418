// Unit tests for the tensor module: Tensor semantics and every raw
// kernel, including gradient checks against numerical differentiation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/memtracker.h"
#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace mls {
namespace {

TEST(Shape, Basics) {
  Shape s{{2, 3, 4}};
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.with_dim(1, 7).numel(), 56);
  EXPECT_EQ(s.strides(), (std::vector<int64_t>{12, 4, 1}));
  EXPECT_THROW(s.dim(3), Error);
}

TEST(Tensor, FactoriesAndAccounting) {
  Tensor z = Tensor::zeros(Shape{{4, 5}}, Dtype::F16);
  EXPECT_EQ(z.numel(), 20);
  EXPECT_EQ(z.logical_bytes(), 40);  // fp16 = 2 bytes
  EXPECT_EQ(z.sum(), 0.f);

  Tensor m = Tensor::zeros(Shape{{4, 5}}, Dtype::U8);
  EXPECT_EQ(m.logical_bytes(), 20);  // mask = 1 byte

  Tensor l = Tensor::zeros(Shape{{4, 5}}, Dtype::F32);
  EXPECT_EQ(l.logical_bytes(), 80);  // logits = 4 bytes

  Tensor f = Tensor::full(Shape{{3}}, 2.5f);
  EXPECT_FLOAT_EQ(f.sum(), 7.5f);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a = Tensor::full(Shape{{3}}, 1.f);
  Tensor b = a.clone();
  b.fill_(9.f);
  EXPECT_FLOAT_EQ(a.sum(), 3.f);
  EXPECT_FLOAT_EQ(b.sum(), 27.f);
}

TEST(Tensor, U8StorageIsOneBytePerElement) {
  // A dropout mask's storage is the 1 B/element the accounting charges:
  // an attention-probs-sized mask takes 1 MiB of the pool, not 4 MiB.
  auto& mt = MemoryTracker::instance();
  const int64_t before = mt.pooled_in_use_bytes();
  Tensor m = Tensor::empty(Shape{{4, 512, 512}}, Dtype::U8);
  EXPECT_EQ(mt.pooled_in_use_bytes() - before, int64_t{1} << 20);
  EXPECT_EQ(m.storage_bytes(), int64_t{1} << 20);
  EXPECT_EQ(m.logical_bytes(), int64_t{1} << 20);
  Tensor f = Tensor::empty(Shape{{4, 512, 512}});  // F16: fp32-backed
  EXPECT_EQ(mt.pooled_in_use_bytes() - before, int64_t{5} << 20);
}

TEST(Tensor, U8RefusesFloatAccess) {
  Tensor m = Tensor::zeros(Shape{{8}}, Dtype::U8);
  const Tensor& cm = m;
  EXPECT_THROW(m.data(), Error);
  EXPECT_THROW(cm.data(), Error);
  EXPECT_THROW(m.as_dtype(Dtype::F16), Error);
  EXPECT_THROW(m.fill_(1.f), Error);
  EXPECT_THROW(m.sum(), Error);
  EXPECT_THROW(m.max_abs(), Error);
  EXPECT_THROW(m.allclose(m), Error);
  EXPECT_THROW(m.mul_(2.f), Error);
  Tensor f = Tensor::zeros(Shape{{8}});
  EXPECT_THROW(m.add_(f), Error);
  EXPECT_THROW(f.copy_from(m), Error);
  EXPECT_THROW(f.u8(), Error);
  EXPECT_THROW(f.as_dtype(Dtype::U8), Error);
  EXPECT_EQ(f.as_dtype(Dtype::F32).dtype(), Dtype::F32);  // same storage
  EXPECT_EQ(std::count(cm.u8(), cm.u8() + 8, 0), 8);       // zeros() clears
}

TEST(Tensor, U8CloneCopiesBytes) {
  Tensor m = Tensor::empty(Shape{{3, 67}}, Dtype::U8);
  for (int64_t i = 0; i < m.numel(); ++i)
    m.u8()[i] = static_cast<uint8_t>((i * 7) % 2);
  Tensor c = m.clone();
  EXPECT_EQ(c.dtype(), Dtype::U8);
  EXPECT_EQ(c.shape(), m.shape());
  EXPECT_NE(c.u8(), m.u8());
  EXPECT_TRUE(std::equal(m.u8(), m.u8() + m.numel(), c.u8()));
  c.u8()[0] ^= 1;  // deep: the source keeps its byte
  EXPECT_EQ(m.u8()[0], 0);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::zeros(Shape{{2, 6}});
  Tensor b = a.reshape(Shape{{3, 4}});
  b.fill_(1.f);
  EXPECT_FLOAT_EQ(a.sum(), 12.f);
  EXPECT_THROW(a.reshape(Shape{{5}}), Error);
}

TEST(Tensor, ReleaseDropsStorageKeepsMetadata) {
  Tensor a = Tensor::zeros(Shape{{8, 8}});
  a.release();
  EXPECT_FALSE(a.defined());
  EXPECT_EQ(a.numel(), 64);
  EXPECT_EQ(a.logical_bytes(), 128);
  EXPECT_THROW(a.data(), Error);
}

TEST(Tensor, AddInplaceAndScale) {
  Tensor a = Tensor::full(Shape{{4}}, 1.f);
  Tensor b = Tensor::full(Shape{{4}}, 2.f);
  a.add_(b, 0.5f);
  EXPECT_FLOAT_EQ(a.sum(), 8.f);
  a.mul_(2.f);
  EXPECT_FLOAT_EQ(a.sum(), 16.f);
}

TEST(Rng, DeterministicAndForked) {
  Rng r1(42), r2(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r1.next_u64(), r2.next_u64());
  Rng child1 = r1.fork(7);
  Rng child2 = r1.fork(8);
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(Rng, NormalMoments) {
  Rng r(123);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.next_normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ------------------------------------------------------------- matmul

TEST(Ops, MatmulKnownValues) {
  Tensor a = Tensor::from_data(Shape{{2, 3}}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data(Shape{{3, 2}}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{{2, 2}}));
  EXPECT_FLOAT_EQ(c.data()[0], 58);
  EXPECT_FLOAT_EQ(c.data()[1], 64);
  EXPECT_FLOAT_EQ(c.data()[2], 139);
  EXPECT_FLOAT_EQ(c.data()[3], 154);
}

TEST(Ops, MatmulTransposes) {
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{{4, 3}}, rng);
  Tensor b = Tensor::randn(Shape{{3, 5}}, rng);
  Tensor c = ops::matmul(a, b);
  // (A B)^T-free identities: C = (A^T)^T B via trans_a on a transposed copy.
  Tensor at = ops::permute(a, {1, 0});
  Tensor c2 = ops::matmul(at, b, /*trans_a=*/true);
  EXPECT_TRUE(c.allclose(c2, 1e-5f, 1e-6f));
  Tensor bt = ops::permute(b, {1, 0});
  Tensor c3 = ops::matmul(a, bt, false, /*trans_b=*/true);
  EXPECT_TRUE(c.allclose(c3, 1e-5f, 1e-6f));
}

TEST(Ops, MatmulLeadingAxesFlattened) {
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{{2, 3, 4}}, rng);
  Tensor b = Tensor::randn(Shape{{4, 5}}, rng);
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{{2, 3, 5}}));
  Tensor a2 = a.reshape(Shape{{6, 4}});
  Tensor c2 = ops::matmul(a2, b);
  EXPECT_TRUE(c.reshape(Shape{{6, 5}}).allclose(c2));
}

TEST(Ops, BmmMatchesPerBatchMatmul) {
  Rng rng(3);
  Tensor a = Tensor::randn(Shape{{3, 2, 4}}, rng);
  Tensor b = Tensor::randn(Shape{{3, 4, 5}}, rng);
  Tensor c = ops::bmm(a, b);
  for (int64_t i = 0; i < 3; ++i) {
    Tensor ai = ops::slice(a, 0, i, 1).reshape(Shape{{2, 4}});
    Tensor bi = ops::slice(b, 0, i, 1).reshape(Shape{{4, 5}});
    Tensor ci = ops::slice(c, 0, i, 1).reshape(Shape{{2, 5}});
    EXPECT_TRUE(ci.allclose(ops::matmul(ai, bi)));
  }
}

TEST(Ops, BmmTransB) {
  Rng rng(4);
  Tensor q = Tensor::randn(Shape{{2, 3, 4}}, rng);
  Tensor k = Tensor::randn(Shape{{2, 3, 4}}, rng);
  Tensor s = ops::bmm(q, k, false, /*trans_b=*/true);
  EXPECT_EQ(s.shape(), (Shape{{2, 3, 3}}));
  // Check one element by hand.
  double acc = 0;
  for (int j = 0; j < 4; ++j) acc += q.data()[0 * 12 + 1 * 4 + j] * k.data()[0 * 12 + 2 * 4 + j];
  EXPECT_NEAR(s.data()[1 * 3 + 2], acc, 1e-5);
}

// --------------------------------------------------------- elementwise

TEST(Ops, AddBiasAndSumToLastDim) {
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{{3, 2, 4}}, rng);
  Tensor b = Tensor::from_data(Shape{{4}}, {1, 2, 3, 4});
  Tensor y = ops::add_bias(x, b);
  EXPECT_NEAR(y.sum(), x.sum() + 6 * 10, 1e-4);
  Tensor g = ops::sum_to_last_dim(Tensor::full(Shape{{3, 2, 4}}, 1.f));
  for (int j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(g.data()[j], 6.f);
}

TEST(Ops, GeluValuesAndGradient) {
  // gelu(0) = 0; gelu(large) ~ x; gelu(-large) ~ 0.
  Tensor x = Tensor::from_data(Shape{{3}}, {0.f, 10.f, -10.f});
  Tensor y = ops::gelu(x);
  EXPECT_NEAR(y.data()[0], 0.f, 1e-6);
  EXPECT_NEAR(y.data()[1], 10.f, 1e-3);
  EXPECT_NEAR(y.data()[2], 0.f, 1e-3);

  // Numerical gradient check.
  Rng rng(6);
  Tensor xin = Tensor::randn(Shape{{16}}, rng);
  Tensor dy = Tensor::randn(Shape{{16}}, rng);
  Tensor dx = ops::gelu_grad(xin, dy);
  const float eps = 1e-3f;
  for (int i = 0; i < 16; ++i) {
    Tensor xp = xin.clone();
    xp.data()[i] += eps;
    Tensor xm = xin.clone();
    xm.data()[i] -= eps;
    double num = 0;
    Tensor yp = ops::gelu(xp), ym = ops::gelu(xm);
    for (int j = 0; j < 16; ++j)
      num += (yp.data()[j] - ym.data()[j]) / (2 * eps) * dy.data()[j];
    EXPECT_NEAR(dx.data()[i], num, 1e-2);
  }
}

// ------------------------------------------------------------- softmax

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor x = Tensor::randn(Shape{{5, 9}}, rng, 3.f);
  Tensor y = ops::softmax_lastdim(x);
  for (int r = 0; r < 5; ++r) {
    double s = 0;
    for (int j = 0; j < 9; ++j) {
      s += y.data()[r * 9 + j];
      EXPECT_GE(y.data()[r * 9 + j], 0.f);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxCausalMasksFuture) {
  Rng rng(8);
  Tensor x = Tensor::randn(Shape{{2, 4, 4}}, rng);
  Tensor y = ops::softmax_lastdim(x, /*causal=*/true);
  for (int b = 0; b < 2; ++b)
    for (int i = 0; i < 4; ++i) {
      double s = 0;
      for (int j = 0; j < 4; ++j) {
        const float v = y.data()[(b * 4 + i) * 4 + j];
        if (j > i) {
          EXPECT_FLOAT_EQ(v, 0.f);
        }
        s += v;
      }
      EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxNumericallyStableForLargeInputs) {
  Tensor x = Tensor::from_data(Shape{{1, 3}}, {1000.f, 1001.f, 1002.f});
  Tensor y = ops::softmax_lastdim(x);
  double s = 0;
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isfinite(y.data()[j]));
    s += y.data()[j];
  }
  EXPECT_NEAR(s, 1.0, 1e-5);
}

TEST(Ops, SoftmaxGradNumerical) {
  Rng rng(9);
  Tensor x = Tensor::randn(Shape{{2, 5}}, rng);
  Tensor dy = Tensor::randn(Shape{{2, 5}}, rng);
  Tensor y = ops::softmax_lastdim(x);
  Tensor dx = ops::softmax_lastdim_grad(y, dy);
  const float eps = 1e-3f;
  for (int i = 0; i < 10; ++i) {
    Tensor xp = x.clone();
    xp.data()[i] += eps;
    Tensor xm = x.clone();
    xm.data()[i] -= eps;
    Tensor yp = ops::softmax_lastdim(xp), ym = ops::softmax_lastdim(xm);
    double num = 0;
    for (int j = 0; j < 10; ++j)
      num += (yp.data()[j] - ym.data()[j]) / (2 * eps) * dy.data()[j];
    EXPECT_NEAR(dx.data()[i], num, 5e-3);
  }
}

// ----------------------------------------------------------- layernorm

TEST(Ops, LayerNormNormalizes) {
  Rng rng(10);
  Tensor x = Tensor::randn(Shape{{4, 8}}, rng, 5.f);
  Tensor gamma = Tensor::full(Shape{{8}}, 1.f);
  Tensor beta = Tensor::zeros(Shape{{8}});
  auto out = ops::layernorm(x, gamma, beta);
  for (int r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (int j = 0; j < 8; ++j) mean += out.y.data()[r * 8 + j];
    mean /= 8;
    for (int j = 0; j < 8; ++j) {
      const double d = out.y.data()[r * 8 + j] - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Ops, LayerNormGradNumerical) {
  Rng rng(11);
  const int rows = 3, h = 6;
  Tensor x = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor gamma = Tensor::randn(Shape{{h}}, rng);
  Tensor beta = Tensor::randn(Shape{{h}}, rng);
  Tensor dy = Tensor::randn(Shape{{rows, h}}, rng);
  auto out = ops::layernorm(x, gamma, beta);
  auto g = ops::layernorm_grad(x, gamma, out.mean, out.rstd, dy);

  auto loss = [&](const Tensor& xx, const Tensor& gg, const Tensor& bb) {
    auto o = ops::layernorm(xx, gg, bb);
    double l = 0;
    for (int64_t i = 0; i < o.y.numel(); ++i) l += o.y.data()[i] * dy.data()[i];
    return l;
  };
  const float eps = 1e-3f;
  for (int i = 0; i < rows * h; ++i) {
    Tensor xp = x.clone();
    xp.data()[i] += eps;
    Tensor xm = x.clone();
    xm.data()[i] -= eps;
    const double num = (loss(xp, gamma, beta) - loss(xm, gamma, beta)) / (2 * eps);
    EXPECT_NEAR(g.dx.data()[i], num, 5e-2) << "dx[" << i << "]";
  }
  for (int i = 0; i < h; ++i) {
    Tensor gp = gamma.clone();
    gp.data()[i] += eps;
    Tensor gm = gamma.clone();
    gm.data()[i] -= eps;
    const double num = (loss(x, gp, beta) - loss(x, gm, beta)) / (2 * eps);
    EXPECT_NEAR(g.dgamma.data()[i], num, 5e-2) << "dgamma[" << i << "]";
  }
  for (int i = 0; i < h; ++i) {
    Tensor bp = beta.clone();
    bp.data()[i] += eps;
    Tensor bm = beta.clone();
    bm.data()[i] -= eps;
    const double num = (loss(x, gamma, bp) - loss(x, gamma, bm)) / (2 * eps);
    EXPECT_NEAR(g.dbeta.data()[i], num, 5e-2) << "dbeta[" << i << "]";
  }
}

// ------------------------------------------------------------- dropout

TEST(Ops, DropoutZeroProbIsIdentity) {
  Rng rng(12);
  Tensor x = Tensor::randn(Shape{{64}}, rng);
  auto out = ops::dropout_stateless(x, 0.0f, 13,
                                    ops::IndexMap::identity(x.shape()));
  EXPECT_TRUE(out.y.allclose(x));
  EXPECT_EQ(std::count(out.mask.u8(), out.mask.u8() + 64, 1), 64);
  EXPECT_EQ(out.mask.dtype(), Dtype::U8);
  EXPECT_EQ(out.mask.logical_bytes(), 64);  // 1 byte/element
}

TEST(Ops, DropoutKeepsExpectedFractionAndScales) {
  Tensor x = Tensor::full(Shape{{10000}}, 1.f);
  auto out = ops::dropout_stateless(x, 0.25f, 15,
                                    ops::IndexMap::identity(x.shape()));
  const float kept = static_cast<float>(
      std::count(out.mask.u8(), out.mask.u8() + 10000, 1));
  EXPECT_EQ(std::count(out.mask.u8(), out.mask.u8() + 10000, 0),
            10000 - static_cast<int64_t>(kept));  // only 0/1 bytes
  EXPECT_NEAR(kept / 10000.f, 0.75f, 0.02f);
  // Inverted dropout preserves expectation.
  EXPECT_NEAR(out.y.sum() / 10000.f, 1.0f, 0.03f);
}

TEST(Ops, DropoutGradMatchesMask) {
  Rng rng(16);
  Tensor x = Tensor::randn(Shape{{32}}, rng);
  auto out = ops::dropout_stateless(x, 0.5f, 17,
                                    ops::IndexMap::identity(x.shape()));
  Tensor dy = Tensor::full(Shape{{32}}, 1.f);
  Tensor dx = ops::dropout_grad(dy, out.mask, 0.5f);
  for (int i = 0; i < 32; ++i)
    EXPECT_FLOAT_EQ(dx.data()[i], static_cast<float>(out.mask.u8()[i]) * 2.f);
  // A float 0/1 tensor is not a mask: only U8 bytes are read.
  EXPECT_THROW(ops::dropout_grad(dy, Tensor::full(Shape{{32}}, 1.f), 0.5f),
               Error);
}

// ----------------------------------------------------------- embedding

TEST(Ops, EmbeddingLookupAndGrad) {
  Tensor table = Tensor::from_data(Shape{{3, 2}}, {0, 1, 10, 11, 20, 21});
  Tensor out = ops::embedding(table, {2, 0, 2});
  EXPECT_EQ(out.shape(), (Shape{{3, 2}}));
  EXPECT_FLOAT_EQ(out.data()[0], 20);
  EXPECT_FLOAT_EQ(out.data()[2], 0);
  EXPECT_FLOAT_EQ(out.data()[4], 20);

  Tensor dtable = Tensor::zeros(Shape{{3, 2}});
  Tensor dy = Tensor::full(Shape{{3, 2}}, 1.f);
  ops::embedding_grad_accum(dtable, {2, 0, 2}, dy);
  EXPECT_FLOAT_EQ(dtable.data()[0], 1);  // row 0 hit once
  EXPECT_FLOAT_EQ(dtable.data()[2], 0);  // row 1 never
  EXPECT_FLOAT_EQ(dtable.data()[4], 2);  // row 2 hit twice

  EXPECT_THROW(ops::embedding(table, {3}), Error);
}

// ------------------------------------------------------- cross entropy

TEST(Ops, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros(Shape{{2, 4}}, Dtype::F32);
  auto out = ops::cross_entropy(logits, {0, 3});
  EXPECT_NEAR(out.loss, std::log(4.0), 1e-5);
}

TEST(Ops, CrossEntropyGradNumerical) {
  Rng rng(18);
  Tensor logits = Tensor::randn(Shape{{3, 5}}, rng);
  std::vector<int64_t> targets = {1, 4, 0};
  auto out = ops::cross_entropy(logits, targets);
  Tensor dl = ops::cross_entropy_grad(out.softmax, targets);
  const float eps = 1e-3f;
  for (int i = 0; i < 15; ++i) {
    Tensor lp = logits.clone();
    lp.data()[i] += eps;
    Tensor lm = logits.clone();
    lm.data()[i] -= eps;
    const double num =
        (ops::cross_entropy(lp, targets).loss - ops::cross_entropy(lm, targets).loss) /
        (2 * eps);
    EXPECT_NEAR(dl.data()[i], num, 1e-3);
  }
}

// ------------------------------------------------------ layout / shard

TEST(Ops, SliceCatChunkRoundTrip) {
  Rng rng(19);
  Tensor x = Tensor::randn(Shape{{4, 6, 2}}, rng);
  for (int dim = 0; dim < 3; ++dim) {
    auto parts = ops::chunk(x, 2, dim);
    EXPECT_EQ(parts.size(), 2u);
    Tensor back = ops::cat(parts, dim);
    EXPECT_TRUE(back.allclose(x)) << "dim=" << dim;
  }
  Tensor s = ops::slice(x, 1, 2, 3);
  EXPECT_EQ(s.shape(), (Shape{{4, 3, 2}}));
  EXPECT_FLOAT_EQ(s.data()[0], x.data()[2 * 2]);
}

TEST(Ops, PermuteRoundTrip) {
  Rng rng(20);
  Tensor x = Tensor::randn(Shape{{2, 3, 4}}, rng);
  Tensor p = ops::permute(x, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{{4, 2, 3}}));
  Tensor back = ops::permute(p, {1, 2, 0});
  EXPECT_TRUE(back.allclose(x));
}

}  // namespace
}  // namespace mls
