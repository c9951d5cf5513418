// Tests for the blocked kernel substrate (tensor/kernels.h):
//  * blocked GEMM vs the scalar reference across tile-straddling
//    shapes (1/7/17/64/130 hit every MR=6 / NR=16 edge case) and all
//    four transpose variants,
//  * bit-identical output at any MLS_KERNEL_THREADS (the library's
//    determinism contract: k-reduction order never depends on tile
//    position or thread count),
//  * beta=0 semantics — every element of C is written, so matmul may
//    run into uninitialized (NaN-canary) storage,
//  * fused epilogues (bias+GeLU, scale+softmax) vs their composed
//    equivalents at the ops and autograd levels (GeLU bitwise), and at
//    odd widths, where the vectorized body and its scalar tail must
//    agree bit for bit at any thread count,
//  * the libm-free tanh/exp bodies against double-precision libm (ulp
//    bounds) and at the edges: exact exp(0), underflow to 0, odd
//    symmetry, ±inf saturation, NaN propagation,
//  * the stateless-dropout row kernel vs a scalar coordinate-walk
//    oracle over every map shape the model uses (bitwise, at 1/2/4
//    threads), and golden mask checksums pinned from the walk,
//  * the specialized sbh<->bhsd layout transposes vs generic permute,
//  * an end-to-end t=2/p=2 training run: blocked path vs
//    MLS_KERNEL_REF=1, losses equal within the documented tolerance,
//    and bit-identical under MLS_KERNEL_THREADS=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "core/env.h"
#include "optim/optim.h"
#include "pipeline/executor.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace mls {
namespace {

// RAII Env override so a failing EXPECT cannot leak the setting into
// later tests.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value) : name_(std::move(name)) {
    core::Env::set(name_, value);
  }
  ~ScopedEnv() { core::Env::clear(name_); }

 private:
  std::string name_;
};

std::vector<float> random_vec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  Tensor t = Tensor::randn(Shape{{n}}, rng);
  std::memcpy(v.data(), t.data(), sizeof(float) * static_cast<size_t>(n));
  return v;
}

// Absolute tolerance for a length-k float dot product of randn values
// against the reference (which accumulates in a different order /
// precision). Scales linearly with k; catches any mis-indexed element
// (those are O(1) wrong, not O(k * eps)).
float dot_tol(int64_t k) { return 1e-5f + 5e-5f * static_cast<float>(k); }

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// ------------------------------------------------- blocked vs reference

TEST(KernelGemm, BlockedMatchesReferenceAcrossShapesAndTrans) {
  const int64_t sizes[] = {1, 7, 17, 64, 130};
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      for (int64_t k : sizes) {
        const std::vector<float> a = random_vec(m * k, 1000 + m * 31 + k);
        const std::vector<float> b = random_vec(k * n, 2000 + k * 31 + n);
        for (int ta = 0; ta < 2; ++ta) {
          for (int tb = 0; tb < 2; ++tb) {
            const bool trans_a = ta != 0;
            const bool trans_b = tb != 0;
            // Storage: A is [m,k] ([k,m] if trans_a), B is [k,n] ([n,k]
            // if trans_b); the flat buffers above serve either reading.
            const int64_t lda = trans_a ? m : k;
            const int64_t ldb = trans_b ? k : n;
            std::vector<float> c_ref(static_cast<size_t>(m * n), -42.0f);
            std::vector<float> c_blk(static_cast<size_t>(m * n), 42.0f);
            kernels::gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k,
                              trans_a, trans_b);
            kernels::gemm_blocked(a.data(), b.data(), c_blk.data(), m, n, k,
                                  trans_a, trans_b, lda, ldb, n);
            for (int64_t i = 0; i < m * n; ++i) {
              ASSERT_NEAR(c_ref[static_cast<size_t>(i)],
                          c_blk[static_cast<size_t>(i)], dot_tol(k))
                  << "m=" << m << " n=" << n << " k=" << k
                  << " trans_a=" << trans_a << " trans_b=" << trans_b
                  << " elem=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(KernelGemm, DispatcherHonorsReferenceFlag) {
  const int64_t m = 33, n = 29, k = 41;
  const std::vector<float> a = random_vec(m * k, 7);
  const std::vector<float> b = random_vec(k * n, 8);
  std::vector<float> c_ref(static_cast<size_t>(m * n));
  std::vector<float> c_env(static_cast<size_t>(m * n));
  kernels::gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k, false, false);
  {
    ScopedEnv env("MLS_KERNEL_REF", "1");
    ASSERT_TRUE(kernels::use_reference());
    kernels::gemm(a.data(), b.data(), c_env.data(), m, n, k, false, false);
  }
  EXPECT_EQ(0, std::memcmp(c_ref.data(), c_env.data(),
                           sizeof(float) * c_ref.size()));
  ASSERT_FALSE(kernels::use_reference());
}

// -------------------------------------------- thread-count bit identity

TEST(KernelGemm, ThreadCountDoesNotChangeBits) {
  // Big enough to clear kParallelGrain so the pool actually engages;
  // m and n straddle tile boundaries (130 = 21*6+4, 97 = 6*16+1).
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 11);
  const std::vector<float> b = random_vec(k * n, 12);
  for (int ta = 0; ta < 2; ++ta) {
    for (int tb = 0; tb < 2; ++tb) {
      const bool trans_a = ta != 0;
      const bool trans_b = tb != 0;
      std::vector<float> c1(static_cast<size_t>(m * n));
      kernels::gemm(a.data(), b.data(), c1.data(), m, n, k, trans_a, trans_b);
      for (const char* nt : {"2", "4", "7"}) {
        ScopedEnv env("MLS_KERNEL_THREADS", nt);
        ASSERT_GT(kernels::threads(), 1);
        std::vector<float> cn(static_cast<size_t>(m * n), -1.0f);
        kernels::gemm(a.data(), b.data(), cn.data(), m, n, k, trans_a,
                      trans_b);
        EXPECT_EQ(0,
                  std::memcmp(c1.data(), cn.data(), sizeof(float) * c1.size()))
            << "threads=" << nt << " trans_a=" << trans_a
            << " trans_b=" << trans_b;
      }
    }
  }
}

TEST(KernelGemm, BmmThreadCountDoesNotChangeBits) {
  const int64_t nb = 8, m = 33, n = 40, k = 64;  // nb*m*n*k > grain
  const std::vector<float> a = random_vec(nb * m * k, 21);
  const std::vector<float> b = random_vec(nb * k * n, 22);
  std::vector<float> c1(static_cast<size_t>(nb * m * n));
  kernels::bmm(a.data(), b.data(), c1.data(), nb, m, n, k, false, true);
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "4");
    std::vector<float> c4(static_cast<size_t>(nb * m * n), -1.0f);
    kernels::bmm(a.data(), b.data(), c4.data(), nb, m, n, k, false, true);
    EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), sizeof(float) * c1.size()));
  }
}

TEST(KernelGemm, PinnedThreadCountsAreBitIdentical) {
  // The full satellite matrix: GEMM and bmm across 1/2/4/7 workers
  // *with core pinning enabled*, so the affinity path (rank slice
  // computation, per-worker pin) runs even on small hosts. Pinning may
  // serialize on few cores; it must never change bits.
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 71);
  const std::vector<float> b = random_vec(k * n, 72);
  std::vector<float> c1(static_cast<size_t>(m * n));
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::gemm(a.data(), b.data(), c1.data(), m, n, k, false, false);
  }
  const int64_t nb = 8, bm = 33, bn = 40, bk = 64;
  const std::vector<float> ba = random_vec(nb * bm * bk, 73);
  const std::vector<float> bb = random_vec(nb * bk * bn, 74);
  std::vector<float> bc1(static_cast<size_t>(nb * bm * bn));
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::bmm(ba.data(), bb.data(), bc1.data(), nb, bm, bn, bk, false,
                 true);
  }
  for (const char* nt : {"2", "4", "7"}) {
    ScopedEnv env("MLS_KERNEL_THREADS", nt);
    std::vector<float> cn(static_cast<size_t>(m * n), -1.0f);
    kernels::gemm(a.data(), b.data(), cn.data(), m, n, k, false, false);
    EXPECT_EQ(0, std::memcmp(c1.data(), cn.data(), sizeof(float) * c1.size()))
        << "gemm threads=" << nt;
    std::vector<float> bcn(static_cast<size_t>(nb * bm * bn), -1.0f);
    kernels::bmm(ba.data(), bb.data(), bcn.data(), nb, bm, bn, bk, false,
                 true);
    EXPECT_EQ(0,
              std::memcmp(bc1.data(), bcn.data(), sizeof(float) * bc1.size()))
        << "bmm threads=" << nt;
  }
}

TEST(KernelFused, PinnedThreadCountsAreBitIdenticalForEpilogues) {
  // Fused epilogues route through the same pool: row partitions for
  // bias_gelu / softmax(+grad), a *column* partition for
  // bias_gelu_grad (so each dbias[j] keeps the serial increasing-row
  // summation order). All must memcmp-match serial at every count.
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  const int64_t rows = 128, h = 256;  // rows*h clears kElemGrain
  const std::vector<float> x = random_vec(rows * h, 81);
  const std::vector<float> bias = random_vec(h, 82);
  const std::vector<float> dy = random_vec(rows * h, 83);
  const int64_t nbh = 8, sq = 64, sk = 64;  // softmax: [nbh, sq, sk]
  const std::vector<float> scores = random_vec(nbh * sq * sk, 84);

  std::vector<float> y1(x.size()), dx1(x.size()), db1(bias.size());
  std::vector<float> sm1(scores.size()), smg1(scores.size());
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::bias_gelu(x.data(), bias.data(), y1.data(), rows, h);
    kernels::bias_gelu_grad(x.data(), bias.data(), dy.data(), dx1.data(),
                            db1.data(), rows, h);
    kernels::scaled_softmax(scores.data(), sm1.data(), nbh * sq, sq, sk,
                            0.25f, /*causal=*/true);
    kernels::scaled_softmax_grad(sm1.data(), scores.data(), smg1.data(),
                                 nbh * sq, sk, 0.25f);
  }
  for (const char* nt : {"2", "4", "7"}) {
    ScopedEnv env("MLS_KERNEL_THREADS", nt);
    std::vector<float> y(x.size(), -1.0f), dx(x.size(), -1.0f);
    std::vector<float> db(bias.size(), -1.0f);
    std::vector<float> sm(scores.size(), -1.0f), smg(scores.size(), -1.0f);
    kernels::bias_gelu(x.data(), bias.data(), y.data(), rows, h);
    kernels::bias_gelu_grad(x.data(), bias.data(), dy.data(), dx.data(),
                            db.data(), rows, h);
    kernels::scaled_softmax(scores.data(), sm.data(), nbh * sq, sq, sk, 0.25f,
                            /*causal=*/true);
    kernels::scaled_softmax_grad(sm.data(), scores.data(), smg.data(),
                                 nbh * sq, sk, 0.25f);
    EXPECT_EQ(0, std::memcmp(y1.data(), y.data(), sizeof(float) * y.size()))
        << "bias_gelu threads=" << nt;
    EXPECT_EQ(0, std::memcmp(dx1.data(), dx.data(), sizeof(float) * dx.size()))
        << "bias_gelu_grad dx threads=" << nt;
    EXPECT_EQ(0, std::memcmp(db1.data(), db.data(), sizeof(float) * db.size()))
        << "bias_gelu_grad dbias threads=" << nt;
    EXPECT_EQ(0, std::memcmp(sm1.data(), sm.data(), sizeof(float) * sm.size()))
        << "scaled_softmax threads=" << nt;
    EXPECT_EQ(0,
              std::memcmp(smg1.data(), smg.data(), sizeof(float) * smg.size()))
        << "scaled_softmax_grad threads=" << nt;
  }
}

TEST(KernelPool, WorkersPersistAcrossKernels) {
  // The tentpole claim: workers are spawned once and reused, not
  // created (or woken through a mutex handshake) per call. Snapshot
  // the pool after one threaded GEMM, run ten more, and check the
  // worker count did not move while the job count did.
  ScopedEnv env("MLS_KERNEL_THREADS", "4");
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 91);
  const std::vector<float> b = random_vec(k * n, 92);
  std::vector<float> c(static_cast<size_t>(m * n));
  kernels::gemm(a.data(), b.data(), c.data(), m, n, k, false, false);
  const kernels::PoolStats before = kernels::local_pool_stats();
  ASSERT_GE(before.workers, 3);  // 4 slots = caller + >= 3 workers
  for (int i = 0; i < 10; ++i) {
    kernels::gemm(a.data(), b.data(), c.data(), m, n, k, false, false);
  }
  const kernels::PoolStats after = kernels::local_pool_stats();
  EXPECT_EQ(before.workers, after.workers);
  EXPECT_GE(after.jobs, before.jobs + 10);
}

TEST(KernelPool, TeardownSurvivesPoisonedWorldUnwind) {
  // A rank that throws mid-step unwinds its thread; the thread_local
  // pool destructor must stop and join that rank's workers without
  // deadlock, and later runs must come up clean.
  ScopedEnv env("MLS_KERNEL_THREADS", "4");
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 95);
  const std::vector<float> b = random_vec(k * n, 96);
  EXPECT_THROW(
      spmd::run(2,
                [&](comm::Comm& c) {
                  std::vector<float> out(static_cast<size_t>(m * n));
                  kernels::gemm(a.data(), b.data(), out.data(), m, n, k,
                                false, false);
                  if (c.rank() == 1) throw std::runtime_error("injected");
                  c.barrier();  // strands rank 0 until the poison lands
                }),
      std::exception);
  // The world is gone; a fresh threaded run must still be correct.
  std::vector<float> c1(static_cast<size_t>(m * n));
  {
    ScopedEnv one("MLS_KERNEL_THREADS", "1");
    kernels::gemm(a.data(), b.data(), c1.data(), m, n, k, false, false);
  }
  std::vector<float> again(static_cast<size_t>(m * n), -1.0f);
  spmd::run(2, [&](comm::Comm& c) {
    std::vector<float> out(static_cast<size_t>(m * n));
    kernels::gemm(a.data(), b.data(), out.data(), m, n, k, false, false);
    if (c.rank() == 0) again = out;
  });
  EXPECT_EQ(0, std::memcmp(c1.data(), again.data(), sizeof(float) * c1.size()));
}

TEST(KernelPool, NestedRanksTimesThreadsIsBitIdenticalWithPin) {
  // t = 2 simulated ranks, 2 intra-op workers each, pinning on: each
  // rank thread binds itself (spmd::run), owns its own pool, and the
  // two pools' core slices partition the host instead of stacking.
  // Must not deadlock and must match the serial result bitwise.
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 97);
  const std::vector<float> b = random_vec(k * n, 98);
  std::vector<float> serial(static_cast<size_t>(m * n));
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::gemm(a.data(), b.data(), serial.data(), m, n, k, false, false);
  }
  ScopedEnv env("MLS_KERNEL_THREADS", "2");
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  std::vector<std::vector<float>> per_rank(2);
  spmd::run(2, [&](comm::Comm& c) {
    EXPECT_EQ(kernels::rank_binding().rank, c.rank());
    EXPECT_EQ(kernels::rank_binding().world, 2);
    std::vector<float> out(static_cast<size_t>(m * n), -1.0f);
    kernels::gemm(a.data(), b.data(), out.data(), m, n, k, false, false);
    c.barrier();
    per_rank[static_cast<size_t>(c.rank())] = std::move(out);
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(0, std::memcmp(serial.data(),
                             per_rank[static_cast<size_t>(r)].data(),
                             sizeof(float) * serial.size()))
        << "rank " << r;
  }
}

// --------------------------------------------------- beta = 0 semantics

TEST(KernelGemm, Beta0OverwritesPoisonedOutput) {
  // The kernel must write every element of C (callers hand it
  // Tensor::empty — uninitialized pooled storage). Poison C with NaN:
  // any read-modify-write or skipped element survives as NaN.
  const int64_t sizes[] = {1, 7, 64, 130};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      const int64_t k = 17;
      const std::vector<float> a = random_vec(m * k, 31);
      const std::vector<float> b = random_vec(k * n, 32);
      std::vector<float> c(static_cast<size_t>(m * n), nan);
      kernels::gemm(a.data(), b.data(), c.data(), m, n, k, false, false);
      for (float v : c) ASSERT_FALSE(std::isnan(v)) << "m=" << m << " n=" << n;
    }
  }
}

// ------------------------------------------------ matmul with 3-D lhs

TEST(KernelOps, MatmulTransAFlattensLeadingAxes) {
  // [s, b, h] with trans_a contracts over s*b: acts as [h, s*b] @ [s*b, n].
  Rng rng(41);
  const int64_t s = 5, b = 3, h = 8, n = 4;
  Tensor x = Tensor::randn(Shape{{s, b, h}}, rng);
  Tensor g = Tensor::randn(Shape{{s, b, n}}, rng);
  Tensor dw = ops::matmul(x, g.reshape(Shape{{s * b, n}}), /*trans_a=*/true);
  ASSERT_EQ(dw.dim(0), h);
  ASSERT_EQ(dw.dim(1), n);
  Tensor x2 = x.reshape(Shape{{s * b, h}});
  Tensor want = ops::matmul(x2, g.reshape(Shape{{s * b, n}}), /*trans_a=*/true);
  EXPECT_TRUE(dw.allclose(want, 0.f, 0.f));  // same kernel call; bitwise
}

// ------------------------------------------------------ fused epilogues

TEST(KernelFused, BiasGeluMatchesComposedOps) {
  Rng rng(51);
  const int64_t rows = 37, h = 65;
  Tensor x = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bias = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor fused = ops::bias_gelu(x, bias);
  Tensor composed = ops::gelu(ops::add_bias(x, bias));
  // Both paths evaluate the same scalar body in kernels.cpp: bitwise.
  EXPECT_TRUE(bitwise_equal(fused, composed));
}

TEST(KernelFused, BiasGeluGradMatchesComposedOps) {
  Rng rng(52);
  const int64_t rows = 37, h = 65;
  Tensor x = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bias = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor dy = Tensor::randn(Shape{{rows, h}}, rng);
  ops::BiasGeluGrads g = ops::bias_gelu_grad(x, bias, dy);
  Tensor dx_composed = ops::gelu_grad(ops::add_bias(x, bias), dy);
  Tensor dbias_composed = ops::sum_to_last_dim(dx_composed);
  EXPECT_TRUE(bitwise_equal(g.dx, dx_composed));
  EXPECT_TRUE(g.dbias.allclose(dbias_composed, 1e-4f, 1e-5f));
}

TEST(KernelFused, ScaledSoftmaxMatchesComposedOps) {
  Rng rng(53);
  const float alpha = 0.35f;
  Tensor x = Tensor::randn(Shape{{6, 17, 17}}, rng);
  for (bool causal : {false, true}) {
    Tensor fused = ops::scaled_softmax(x, alpha, causal);
    Tensor composed = ops::softmax_lastdim(ops::scale(x, alpha), causal);
    EXPECT_TRUE(fused.allclose(composed, 1e-5f, 1e-6f)) << "causal=" << causal;
  }
}

TEST(KernelFused, ScaledSoftmaxGradMatchesComposedOps) {
  Rng rng(54);
  const float alpha = 0.35f;
  Tensor x = Tensor::randn(Shape{{6, 17, 17}}, rng);
  Tensor dy = Tensor::randn(Shape{{6, 17, 17}}, rng);
  Tensor y = ops::scaled_softmax(x, alpha, /*causal=*/false);
  Tensor fused = ops::scaled_softmax_grad(y, dy, alpha);
  // d/dx softmax(alpha x) = alpha * softmax_grad evaluated at y.
  Tensor composed = ops::scale(ops::softmax_lastdim_grad(y, dy), alpha);
  EXPECT_TRUE(fused.allclose(composed, 1e-5f, 1e-6f));
}

TEST(KernelFused, AutogradBiasGeluMatchesComposedGraph) {
  Rng rng(55);
  const int64_t rows = 16, h = 24;
  Tensor xv = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bv = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor dy = Tensor::randn(Shape{{rows, h}}, rng);

  ag::Var x1(xv.clone(), true);
  ag::Var b1 = ag::Var::param(bv.clone(), "bias");
  ag::Var y1 = ag::bias_gelu(x1, b1);
  ag::backward(y1, dy);

  ag::Var x2(xv.clone(), true);
  ag::Var b2 = ag::Var::param(bv.clone(), "bias");
  ag::Var y2 = ag::gelu(ag::add_bias(x2, b2));
  ag::backward(y2, dy);

  EXPECT_TRUE(bitwise_equal(y1.value(), y2.value()));
  EXPECT_TRUE(bitwise_equal(x1.grad(), x2.grad()));
  EXPECT_TRUE(b1.grad().allclose(b2.grad(), 1e-4f, 1e-5f));
}

TEST(KernelFused, AutogradScaledSoftmaxMatchesComposedGraph) {
  Rng rng(56);
  const float alpha = 0.25f;
  Tensor xv = Tensor::randn(Shape{{4, 9, 9}}, rng);
  Tensor dy = Tensor::randn(Shape{{4, 9, 9}}, rng);
  for (bool causal : {false, true}) {
    ag::Var x1(xv.clone(), true);
    ag::Var y1 = ag::scaled_softmax(x1, alpha, causal);
    ag::backward(y1, dy);

    ag::Var x2(xv.clone(), true);
    ag::Var y2 = ag::softmax(ag::scale(x2, alpha), causal);
    ag::backward(y2, dy);

    EXPECT_TRUE(y1.value().allclose(y2.value(), 1e-5f, 1e-6f))
        << "causal=" << causal;
    EXPECT_TRUE(x1.grad().allclose(x2.grad(), 1e-5f, 1e-6f))
        << "causal=" << causal;
  }
}

// ------------------------------------------- libm-free tanh and exp

// Distance in units in the last place between a float and the float
// nearest a double reference (signed floats mapped to ordered ints).
int64_t ulp_distance(float got, double want) {
  auto ordered = [](float f) {
    int32_t i;
    std::memcpy(&i, &f, sizeof(i));
    return i < 0 ? int64_t{INT32_MIN} - i : int64_t{i};
  };
  return std::llabs(ordered(got) - ordered(static_cast<float>(want)));
}

// Floats from lo to hi in steps of `step`, accumulated in double.
std::vector<float> sweep(double lo, double hi, double step) {
  std::vector<float> v;
  for (double x = lo; x <= hi; x += step) v.push_back(static_cast<float>(x));
  return v;
}

TEST(KernelMath, TanhWithin7UlpAndOddAndBounded) {
  const std::vector<float> x = sweep(-20.0, 20.0, 1e-4);
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> y(x.size()), neg(x.size()), ny(x.size());
  kernels::tanh(x.data(), y.data(), n);
  for (size_t i = 0; i < x.size(); ++i) neg[i] = -x[i];
  kernels::tanh(neg.data(), ny.data(), n);
  int64_t worst = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, ulp_distance(y[i], std::tanh(double{x[i]})));
    ASSERT_LE(std::fabs(y[i]), 1.0f) << "x=" << x[i];
    const float minus = -y[i];
    ASSERT_EQ(0, std::memcmp(&ny[i], &minus, sizeof(float)))
        << "tanh(-x) != -tanh(x) at x=" << x[i];
  }
  EXPECT_LE(worst, 7);
}

TEST(KernelMath, ExpWithin1UlpOnSoftmaxRange) {
  // Softmax only ever exponentiates x - max(x) <= 0.
  const std::vector<float> x = sweep(-87.3, 0.0, 1e-4);
  std::vector<float> y(x.size());
  kernels::exp(x.data(), y.data(), static_cast<int64_t>(x.size()));
  int64_t worst = 0;
  for (size_t i = 0; i < x.size(); ++i)
    worst = std::max(worst, ulp_distance(y[i], std::exp(double{x[i]})));
  EXPECT_LE(worst, 1);
}

TEST(KernelMath, EdgeCasesSaturateAndPropagateNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x = {0.0f, -0.0f, -88.0f, -100.0f, -1e30f,
                                -inf, inf,   1e30f,  89.0f,   nan};
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> e(x.size()), t(x.size());
  kernels::exp(x.data(), e.data(), n);
  kernels::tanh(x.data(), t.data(), n);
  EXPECT_EQ(e[0], 1.0f);  // exactly
  EXPECT_EQ(e[1], 1.0f);
  for (int i : {2, 3, 4, 5}) {
    EXPECT_EQ(e[i], 0.0f) << "exp(" << x[i] << ") must underflow to 0";
    EXPECT_FALSE(std::signbit(e[i]));
  }
  for (int i : {6, 7, 8}) EXPECT_EQ(e[i], inf) << "exp(" << x[i] << ")";
  EXPECT_TRUE(std::isnan(e[9]));

  EXPECT_EQ(t[0], 0.0f);
  EXPECT_FALSE(std::signbit(t[0]));
  EXPECT_TRUE(std::signbit(t[1]));  // tanh(-0) == -0
  for (int i : {2, 3, 4, 5}) EXPECT_EQ(t[i], -1.0f) << "tanh(" << x[i] << ")";
  for (int i : {6, 7, 8}) EXPECT_EQ(t[i], 1.0f) << "tanh(" << x[i] << ")";
  EXPECT_TRUE(std::isnan(t[9]));

  // NaN flows through every epilogue instead of being masked or cast.
  std::vector<float> g(1), dg(1), one(1, 1.0f), sm(3);
  kernels::gelu(&x[9], g.data(), 1);
  kernels::gelu_grad(&x[9], one.data(), dg.data(), 1);
  EXPECT_TRUE(std::isnan(g[0]));
  EXPECT_TRUE(std::isnan(dg[0]));
  const float row[3] = {0.5f, nan, -0.5f};
  kernels::scaled_softmax(row, sm.data(), 1, 1, 3, 1.0f, /*causal=*/false);
  for (float v : sm) EXPECT_TRUE(std::isnan(v));
}

TEST(KernelFused, OddWidthsMatchScalarTailsAtAnyThreadCount) {
  // Widths that are not a multiple of the vector length put some
  // columns in the vectorized loop body and some in its scalar tail;
  // both must produce the same bits, whichever thread takes the range.
  const int64_t rows = 300, h = 65;  // rows*h clears kElemGrain
  const std::vector<float> x = random_vec(rows * h, 91);
  const std::vector<float> bias = random_vec(h, 92);
  const std::vector<float> dy = random_vec(rows * h, 93);
  const int64_t nbh = 64, sq = 17, sk = 17;
  const std::vector<float> scores = random_vec(nbh * sq * sk, 94);

  // One element per call runs only the scalar loop.
  std::vector<float> y_ref(x.size()), dx_ref(x.size());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < h; ++j) {
      const int64_t i = r * h + j;
      const float v = x[i] + bias[j];
      kernels::gelu(&v, &y_ref[i], 1);
      kernels::gelu_grad(&v, &dy[i], &dx_ref[i], 1);
    }
  }

  struct Out {
    std::vector<float> y, dx, db, sm[2], smg;
  };
  auto run = [&] {
    Out o;
    o.y.assign(x.size(), -1.0f);
    o.dx.assign(x.size(), -1.0f);
    o.db.assign(bias.size(), -1.0f);
    kernels::bias_gelu(x.data(), bias.data(), o.y.data(), rows, h);
    kernels::bias_gelu_grad(x.data(), bias.data(), dy.data(), o.dx.data(),
                            o.db.data(), rows, h);
    for (int causal : {0, 1}) {
      o.sm[causal].assign(scores.size(), -1.0f);
      kernels::scaled_softmax(scores.data(), o.sm[causal].data(), nbh * sq,
                              sq, sk, 0.25f, causal != 0);
    }
    o.smg.assign(scores.size(), -1.0f);
    kernels::scaled_softmax_grad(o.sm[1].data(), scores.data(), o.smg.data(),
                                 nbh * sq, sk, 0.25f);
    return o;
  };
  auto same = [](const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
  };

  Out serial;
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    serial = run();
  }
  EXPECT_TRUE(same(serial.y, y_ref)) << "bias_gelu vector body vs scalar";
  EXPECT_TRUE(same(serial.dx, dx_ref))
      << "bias_gelu_grad vector body vs scalar";

  // Softmax: each row alone, from a buffer shifted off the original
  // alignment, must reproduce that row of the batched call.
  for (int causal : {0, 1}) {
    std::vector<float> in(sk + 1), out(sk + 1);
    for (int64_t r = 0; r < nbh * sq; ++r) {
      const int64_t qi = r % sq;
      // Causal row qi has qi + 1 + (sk - sq) live entries; alone, it is
      // a one-row non-causal softmax over that prefix.
      const int64_t live = causal ? qi + 1 + (sk - sq) : sk;
      std::memcpy(in.data() + 1, scores.data() + r * sk,
                  sizeof(float) * static_cast<size_t>(live));
      kernels::scaled_softmax(in.data() + 1, out.data() + 1, 1, 1, live,
                              0.25f, /*causal=*/false);
      const float* want = serial.sm[causal].data() + r * sk;
      ASSERT_EQ(0, std::memcmp(out.data() + 1, want,
                               sizeof(float) * static_cast<size_t>(live)))
          << "softmax row " << r << " causal=" << causal;
    }
  }

  for (const char* nt : {"2", "4", "7"}) {
    ScopedEnv env("MLS_KERNEL_THREADS", nt);
    const Out o = run();
    EXPECT_TRUE(same(o.y, serial.y)) << "bias_gelu threads=" << nt;
    EXPECT_TRUE(same(o.dx, serial.dx)) << "bias_gelu_grad dx threads=" << nt;
    EXPECT_TRUE(same(o.db, serial.db)) << "bias_gelu_grad dbias threads=" << nt;
    for (int causal : {0, 1}) {
      EXPECT_TRUE(same(o.sm[causal], serial.sm[causal]))
          << "scaled_softmax causal=" << causal << " threads=" << nt;
    }
    EXPECT_TRUE(same(o.smg, serial.smg))
        << "scaled_softmax_grad threads=" << nt;
  }
}

TEST(KernelFused, FoldedTspInteriorsAreThreadCountInvariant) {
  // The folded-TSP fused autograd nodes (bias_gelu_matmul,
  // scaled_softmax_dropout_bmm) run their interiors through ops:: and
  // therefore through the worker pool. Forward values and every grad
  // must be bitwise identical at 1 vs 4 threads with pinning on —
  // including the backward recompute-from-saved-x passes.
  Rng rng(57);
  const int64_t rows = 256, h = 128, out = 112;
  Tensor xv = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bv = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor wv = Tensor::randn(Shape{{h, out}}, rng);
  Tensor dy = Tensor::randn(Shape{{rows, out}}, rng);
  const int64_t nbh = 8, sq = 64, sk = 64, d = 32;
  Tensor sv = Tensor::randn(Shape{{nbh, sq, sk}}, rng);
  Tensor vv = Tensor::randn(Shape{{nbh, sk, d}}, rng);
  Tensor sdy = Tensor::randn(Shape{{nbh, sq, d}}, rng);
  const auto map = ops::IndexMap::identity(sv.shape());

  struct Run {
    Tensor y, dx, dbias, dw, sy, dscores, dv;
  };
  auto run_once = [&]() {
    Run r;
    ag::Var x(xv.clone(), true);
    ag::Var bias = ag::Var::param(bv.clone(), "bias");
    ag::Var w = ag::Var::param(wv.clone(), "w");
    ag::Var y = ag::bias_gelu_matmul(x, bias, w);
    ag::backward(y, dy);
    r.y = y.value();
    r.dx = x.grad();
    r.dbias = bias.grad();
    r.dw = w.grad();
    ag::Var scores(sv.clone(), true);
    ag::Var v(vv.clone(), true);
    ag::Var sy = ag::scaled_softmax_dropout_bmm(scores, v, 0.25f,
                                                /*causal=*/true, 0.1f, 99,
                                                map);
    ag::backward(sy, sdy);
    r.sy = sy.value();
    r.dscores = scores.grad();
    r.dv = v.grad();
    return r;
  };

  Run one;
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    one = run_once();
  }
  ScopedEnv env("MLS_KERNEL_THREADS", "4");
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  const Run four = run_once();
  auto same_bits = [](const Tensor& p, const Tensor& q) {
    return p.numel() == q.numel() &&
           std::memcmp(p.data(), q.data(),
                       sizeof(float) * static_cast<size_t>(p.numel())) == 0;
  };
  EXPECT_TRUE(same_bits(one.y, four.y));
  EXPECT_TRUE(same_bits(one.dx, four.dx));
  EXPECT_TRUE(same_bits(one.dbias, four.dbias));
  EXPECT_TRUE(same_bits(one.dw, four.dw));
  EXPECT_TRUE(same_bits(one.sy, four.sy));
  EXPECT_TRUE(same_bits(one.dscores, four.dscores));
  EXPECT_TRUE(same_bits(one.dv, four.dv));
}

// ------------------------------------------------ stateless dropout

// The per-element coordinate walk the row kernel replaced: keep iff
// splitmix64(seed ^ gidx) >= p * (2^64 - 1), with gidx stepped through
// the map's global strides one local element at a time. Any map,
// any stride order.
ops::DropoutOut dropout_coordinate_walk(const Tensor& x, float p,
                                        uint64_t seed,
                                        const ops::IndexMap& map) {
  auto hash64 = [](uint64_t v) {
    v += 0x9e3779b97f4a7c15ull;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
    return v ^ (v >> 31);
  };
  ops::DropoutOut out;
  out.y = Tensor::empty(x.shape(), x.dtype());
  out.mask = Tensor::empty(x.shape(), Dtype::U8);
  const float inv_keep = 1.0f / (1.0f - p);
  const auto threshold = static_cast<uint64_t>(p * 18446744073709551615.0);
  const size_t nd = map.dims.size();
  std::vector<int64_t> coord(nd, 0);
  int64_t gidx = map.base;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const bool keep = hash64(seed ^ static_cast<uint64_t>(gidx)) >= threshold;
    out.mask.data()[i] = keep ? 1.0f : 0.0f;
    out.y.data()[i] = keep ? x.data()[i] * inv_keep : 0.0f;
    for (size_t d = nd; d-- > 0;) {
      gidx += map.strides[d];
      if (++coord[d] < map.dims[d]) break;
      gidx -= map.strides[d] * map.dims[d];
      coord[d] = 0;
    }
  }
  return out;
}

struct DropoutCase {
  const char* name;
  ops::IndexMap map;
};

// The map shapes the model draws masks through, all with odd innermost
// widths (vector tails) and enough elements to clear the pool's grain,
// so 2 and 4 threads really split rows; plus a 0-d map (one element).
std::vector<DropoutCase> dropout_cases() {
  ops::IndexMap attn;  // global [2, 6, 65, 65], rank 1 holds heads [3, 6)
  attn.dims = {2, 3, 65, 65};
  attn.strides = {6 * 65 * 65, 65 * 65, 65, 1};
  attn.base = 3 * 65 * 65;
  return {
      {"identity", ops::IndexMap::identity(Shape{{37, 5, 97}})},
      {"shard_dim0", ops::IndexMap::shard(Shape{{128, 4, 67}}, 0, 64, 64)},
      {"shard_inner", ops::IndexMap::shard(Shape{{128, 4, 67}}, 1, 1, 2)},
      {"shard_last", ops::IndexMap::shard(Shape{{512, 8, 67}}, -1, 60, 7)},
      {"attention_heads", attn},
      {"scalar", ops::IndexMap::identity(Shape(std::vector<int64_t>{}))},
  };
}

Tensor tensor_for(const ops::IndexMap& map, uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(Shape(map.dims), rng);
}

TEST(KernelDropout, RowKernelMatchesCoordinateWalkOracle) {
  for (const DropoutCase& c : dropout_cases()) {
    const Tensor x = tensor_for(c.map, 91);
    for (float p : {0.0f, 0.1f, 0.5f}) {
      const ops::DropoutOut want = dropout_coordinate_walk(x, p, 0xd00d, c.map);
      for (const char* nt : {"1", "2", "4"}) {
        ScopedEnv env("MLS_KERNEL_THREADS", nt);
        const ops::DropoutOut got = ops::dropout_stateless(x, p, 0xd00d, c.map);
        EXPECT_TRUE(bitwise_equal(got.y, want.y))
            << c.name << " p=" << p << " threads=" << nt;
        EXPECT_TRUE(bitwise_equal(got.mask, want.mask))
            << c.name << " p=" << p << " threads=" << nt;
      }
    }
  }
}

TEST(KernelDropout, ZeroProbabilityKeepsEveryElement) {
  // The threshold at p = 0 is 0, and every hash is >= 0.
  for (const DropoutCase& c : dropout_cases()) {
    const Tensor x = tensor_for(c.map, 92);
    const ops::DropoutOut out = ops::dropout_stateless(x, 0.0f, 5, c.map);
    EXPECT_TRUE(bitwise_equal(out.y, x)) << c.name;
    EXPECT_EQ(out.mask.sum(), static_cast<float>(x.numel())) << c.name;
  }
}

TEST(KernelDropout, GradIsThreadCountInvariant) {
  for (const DropoutCase& c : dropout_cases()) {
    const Tensor x = tensor_for(c.map, 93);
    const Tensor dy = tensor_for(c.map, 94);
    const ops::DropoutOut out = ops::dropout_stateless(x, 0.1f, 77, c.map);
    const float inv_keep = 1.0f / (1.0f - 0.1f);
    Tensor want = Tensor::empty(dy.shape());
    for (int64_t i = 0; i < dy.numel(); ++i)
      want.data()[i] = dy.data()[i] * out.mask.data()[i] * inv_keep;
    for (const char* nt : {"1", "2", "4"}) {
      ScopedEnv env("MLS_KERNEL_THREADS", nt);
      EXPECT_TRUE(bitwise_equal(ops::dropout_grad(dy, out.mask, 0.1f), want))
          << c.name << " threads=" << nt;
    }
  }
}

TEST(KernelDropout, RejectsMapWithStridedInnermostDim) {
  ops::IndexMap map;  // a column of a [4, 8] tensor: innermost stride 8
  map.dims = {8};
  map.strides = {8};
  const Tensor x = Tensor::zeros(Shape{{8}});
  EXPECT_THROW(ops::dropout_stateless(x, 0.1f, 1, map), Error);
}

uint64_t fnv1a(const Tensor& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (size_t i = 0; i < sizeof(float) * static_cast<size_t>(t.numel()); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// x[i] = (i % 251) / 8 - 15: exact in float and independent of Rng.
Tensor ramp(const Shape& shape) {
  Tensor x = Tensor::empty(shape);
  for (int64_t i = 0; i < x.numel(); ++i)
    x.data()[i] = static_cast<float>(i % 251) * 0.125f - 15.0f;
  return x;
}

TEST(KernelDropout, GoldenMasksMatchPinnedChecksums) {
  // Pinned from the coordinate-walk implementation this kernel
  // replaced: the masks (and scaled outputs) must never change, at any
  // thread count and with or without -march=native (CI runs this test
  // in a -DMLS_KERNEL_NATIVE=OFF build too).
  ops::IndexMap attn;  // global [2, 6, 33, 33], rank 1 holds heads [3, 6)
  attn.dims = {2, 3, 33, 33};
  attn.strides = {6 * 33 * 33, 33 * 33, 33, 1};
  attn.base = 3 * 33 * 33;
  const ops::IndexMap sp = ops::IndexMap::shard(Shape{{64, 3, 40}}, 0, 32, 32);
  for (const char* nt : {"1", "4"}) {
    ScopedEnv env("MLS_KERNEL_THREADS", nt);
    const ops::DropoutOut a =
        ops::dropout_stateless(ramp(Shape{{2, 3, 33, 33}}), 0.1f, 0x5eed, attn);
    EXPECT_EQ(fnv1a(a.y), 0x2f88ffe94b0f3208ull) << "threads=" << nt;
    EXPECT_EQ(fnv1a(a.mask), 0x8cb7779c92e47de5ull) << "threads=" << nt;
    const ops::DropoutOut b =
        ops::dropout_stateless(ramp(Shape{{32, 3, 40}}), 0.5f, 1234567, sp);
    EXPECT_EQ(fnv1a(b.y), 0xd173f93291c48903ull) << "threads=" << nt;
    EXPECT_EQ(fnv1a(b.mask), 0xc031b972ec3b2b98ull) << "threads=" << nt;
  }
}

// ------------------------------------------------- layout fast paths

TEST(KernelLayout, SbhTransposesMatchGenericPermute) {
  Rng rng(61);
  const int64_t s = 10, b = 3, heads = 4, d = 7;
  Tensor x = Tensor::randn(Shape{{s, b, heads * d}}, rng);
  Tensor fast = ops::sbh_to_bhsd(x, heads);
  // Composed path: [s,b,heads,d] -> permute {1,2,0,3} -> [b*heads,s,d].
  Tensor slow = ops::permute(x.reshape(Shape{{s, b, heads, d}}), {1, 2, 0, 3})
                    .reshape(Shape{{b * heads, s, d}});
  ASSERT_EQ(fast.shape().str(), slow.shape().str());
  EXPECT_EQ(0, std::memcmp(fast.data(), slow.data(),
                           sizeof(float) * static_cast<size_t>(fast.numel())));

  Tensor back = ops::bhsd_to_sbh(fast, heads);
  ASSERT_EQ(back.shape().str(), x.shape().str());
  EXPECT_EQ(0, std::memcmp(back.data(), x.data(),
                           sizeof(float) * static_cast<size_t>(x.numel())));
}

// ------------------------------------------ end-to-end training parity

// One t=2, p=2 (SP + selective recompute) training run; returns every
// step's loss from rank 0. Same construction as test_analysis's
// harness so the kernel substrate is exercised under checkpoint
// replay, pipelining, and both parallelisms at once.
std::vector<float> train_t2p2_losses(int steps) {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 4 * cfg.b;
  cfg.validate();

  Rng rng(2026);
  std::vector<std::vector<int64_t>> tokens, targets;
  for (int64_t mb = 0; mb < cfg.total_microbatches(); ++mb) {
    std::vector<int64_t> tok(static_cast<size_t>(cfg.s * cfg.b));
    std::vector<int64_t> tgt(tok.size());
    for (auto& x : tok)
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    for (auto& x : tgt)
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    tokens.push_back(std::move(tok));
    targets.push_back(std::move(tgt));
  }

  std::vector<float> losses;
  spmd::run(cfg.t * cfg.p * cfg.d, [&](comm::Comm& c) {
    MemoryTracker::instance().reset();
    pipeline::PipelineEngine engine(cfg, c);
    optim::Sgd opt(engine.params(), 0.05f);
    std::vector<float> local;
    for (int step = 0; step < steps; ++step) {
      opt.zero_grad();
      auto stats = engine.run_iteration(tokens, targets, step);
      opt.step();
      local.push_back(stats.loss);
    }
    if (c.rank() == 0) losses = local;
  });
  return losses;
}

TEST(KernelTraining, BlockedPathTracksReferencePath) {
  const int steps = 4;
  std::vector<float> ref;
  {
    ScopedEnv env("MLS_KERNEL_REF", "1");
    ref = train_t2p2_losses(steps);
  }
  const std::vector<float> got = train_t2p2_losses(steps);
  ASSERT_EQ(ref.size(), got.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    // Different accumulation orders diverge slowly over steps; same
    // budget as test_core's serial-vs-parallel equivalence.
    EXPECT_NEAR(ref[i], got[i], 2e-3f * (1.0f + static_cast<float>(i)))
        << "step " << i;
  }
}

TEST(KernelTraining, ThreadedTrainingIsBitIdentical) {
  // Intra-op workers never change the k-reduction order, so a full
  // training run (GEMMs, fused ops, checkpoint replays, collectives)
  // is bit-identical at any MLS_KERNEL_THREADS.
  const int steps = 3;
  const std::vector<float> one = train_t2p2_losses(steps);
  std::vector<float> four;
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "4");
    four = train_t2p2_losses(steps);
  }
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "step " << i;  // bitwise
  }
}

}  // namespace
}  // namespace mls
