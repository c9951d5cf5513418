// Tests for the blocked kernel substrate (tensor/kernels.h):
//  * blocked GEMM vs the scalar reference across tile-straddling
//    shapes and all four transpose variants: 1/7/17/31/32/33/64/130
//    straddle the MR = 6 row tile and the NR column tile of every build
//    (8 on SSE2, 16 on AVX2, 32 on AVX-512),
//  * short-M GEMMs (B read in place) vs the same rows of a tall,
//    packed GEMM, bitwise, across both B paths and 1/2/4 threads,
//  * the causal triangle modes (kOut, kALower, kAUpper) vs the full
//    GEMM on the live region, bitwise, with ±0 in the dead triangle and
//    narrow (in-place A) against wide (packed A) op(B); kOut's dead
//    tiles stay unwritten,
//  * bit-identical output at any MLS_KERNEL_THREADS (the library's
//    determinism contract: k-reduction order never depends on tile
//    position or thread count),
//  * one placement rule, with no env set: each rank thread is pinned
//    to its own CPU slice of the affinity mask it inherits, its pool
//    workers to distinct CPUs inside that slice, and the slice's size
//    is the default thread count,
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
//    threads), and golden mask checksums pinned from the walk (the
//    byte mask widened to the float 0/1 mask the walk wrote); the causal
//    dropout, dropout-grad and softmax-grad forms vs the full kernels on
//    each row's live prefix, with +0 written past it,
//  * U8 mask storage: 1 byte per element in the pool, and autograd
//    draws no mask when it builds no node,
//  * strided A, B and C (leading dimensions) vs the contiguous GEMM,
//    bitwise, in every transpose pair and triangle mode, at 1/2/4
//    threads and under MLS_KERNEL_REF=1, with C's row padding unwritten,
//  * paged decode attention (K transposed per block, read in place) vs
//    the gather + gemm + softmax + gemm chain it replaced, bitwise, with
//    the blocked kernel and under MLS_KERNEL_REF=1,
//  * an end-to-end t=2/p=2 training run: blocked path vs
//    MLS_KERNEL_REF=1, losses equal within the documented tolerance,
//    and bit-identical under MLS_KERNEL_THREADS=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "core/env.h"
#include "memory/pool_allocator.h"
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
  const int64_t sizes[] = {1, 7, 17, 31, 32, 33, 64, 130};
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

// The decode row contract at the kernel level: a short GEMM (B read in
// place, the n-edge panel packed; or split over N when threaded) gives
// each row exactly the bits the same row gets inside a tall GEMM over
// the same B, which always packs. m straddles the tile and the short-M
// crossover, n the build's NR, k the KC = 256 panel boundary.
TEST(KernelGemm, ShortMRowsMatchTallGemmBitwise) {
  const kernels::GemmTile tile = kernels::gemm_tile();
  const int64_t tall = 256;
  ASSERT_GT(tall, tile.short_m);
  const int64_t ms[] = {1, 5, 6, 7, 13, tile.short_m, tile.short_m + 1, 33};
  const int64_t ns[] = {1, 17, tile.nr - 1, tile.nr, tile.nr + 1, 100, 768};
  const int64_t ks[] = {1, 64, 257, 1024};
  for (int64_t n : ns) {
    for (int64_t k : ks) {
      const std::vector<float> a = random_vec(tall * k, 3000 + n * 7 + k);
      const std::vector<float> b = random_vec(k * n, 4000 + n * 7 + k);
      for (int ta = 0; ta < 2; ++ta) {
        for (int tb = 0; tb < 2; ++tb) {
          const bool trans_a = ta != 0;
          const bool trans_b = tb != 0;
          // a read as [tall, k], or as its transpose's storage [k, tall].
          std::vector<float> c_tall(static_cast<size_t>(tall * n));
          {
            ScopedEnv env("MLS_KERNEL_THREADS", "1");
            kernels::gemm(a.data(), b.data(), c_tall.data(), tall, n, k,
                          trans_a, trans_b);
          }
          for (int64_t m : ms) {
            // The first m rows of op(A), in m-row storage.
            std::vector<float> a_short(static_cast<size_t>(m * k));
            for (int64_t i = 0; i < m; ++i) {
              for (int64_t kk = 0; kk < k; ++kk) {
                a_short[static_cast<size_t>(trans_a ? kk * m + i
                                                    : i * k + kk)] =
                    a[static_cast<size_t>(trans_a ? kk * tall + i
                                                  : i * k + kk)];
              }
            }
            for (const char* nt : {"1", "2", "4"}) {
              ScopedEnv env("MLS_KERNEL_THREADS", nt);
              std::vector<float> c(static_cast<size_t>(m * n), -1.0f);
              kernels::gemm(a_short.data(), b.data(), c.data(), m, n, k,
                            trans_a, trans_b);
              ASSERT_EQ(0, std::memcmp(c.data(), c_tall.data(),
                                       sizeof(float) * c.size()))
                  << "m=" << m << " n=" << n << " k=" << k
                  << " trans_a=" << trans_a << " trans_b=" << trans_b
                  << " threads=" << nt;
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
  // Every shape clears kParallelGrain so the pool engages, and each
  // threaded run must equal the single-thread bits. The shapes cover
  // both slab directions and the cache blocking:
  //  * 130 x 97 x 256: m and n straddle tile boundaries (130 = 21*6+4,
  //    97 = 6*16+1), k is one full KC panel;
  //  * 512 x 32 x 512: the attention P·V / dV shape, narrow N, M slabs;
  //  * 97 x 600 x 300: two NC column blocks and two KC panels per slab;
  //  * 40 x 97 x 600: M slabs of at most short_m rows, which read B in
  //    place (N slabs at 7 threads, with fewer row tiles than slots).
  struct Case {
    int64_t m, n, k;
  };
  const Case cases[] = {{130, 97, 256}, {512, 32, 512}, {97, 600, 300},
                        {40, 97, 600}};
  for (const Case& s : cases) {
    const std::vector<float> a = random_vec(s.m * s.k, 11 + s.m);
    const std::vector<float> b = random_vec(s.k * s.n, 12 + s.n);
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        const bool trans_a = ta != 0;
        const bool trans_b = tb != 0;
        std::vector<float> c1(static_cast<size_t>(s.m * s.n));
        {
          ScopedEnv env("MLS_KERNEL_THREADS", "1");
          kernels::gemm(a.data(), b.data(), c1.data(), s.m, s.n, s.k, trans_a,
                        trans_b);
        }
        for (const char* nt : {"2", "3", "4", "7"}) {
          ScopedEnv env("MLS_KERNEL_THREADS", nt);
          ASSERT_GT(kernels::threads(), 1);
          std::vector<float> cn(static_cast<size_t>(s.m * s.n), -1.0f);
          kernels::gemm(a.data(), b.data(), cn.data(), s.m, s.n, s.k, trans_a,
                        trans_b);
          EXPECT_EQ(0, std::memcmp(c1.data(), cn.data(),
                                   sizeof(float) * c1.size()))
              << s.m << "x" << s.n << "x" << s.k << " threads=" << nt
              << " trans_a=" << trans_a << " trans_b=" << trans_b;
        }
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
  // The full satellite matrix: GEMM and bmm across 1/2/4/7 workers,
  // each worker pinned to a CPU of the caller's slice (wrapped when
  // there are more workers than CPUs). Pinning may serialize on few
  // cores; it must never change bits.
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
  // t = 2 simulated ranks, 2 intra-op workers each: each rank thread
  // binds itself (spmd::run), owns its own pool, and the two pools'
  // CPU slices partition the host instead of stacking.
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

#ifdef __linux__
// Every thread of this process, by kernel thread id.
std::set<pid_t> thread_ids() {
  std::set<pid_t> ids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ids.insert(static_cast<pid_t>(std::stol(e.path().filename().string())));
  return ids;
}

// The calling thread's affinity mask.
cpu_set_t own_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(0, pthread_getaffinity_np(pthread_self(), sizeof(set), &set));
  return set;
}

// The affinity mask of thread tid (empty if it cannot be read).
cpu_set_t mask_of(pid_t tid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(tid, sizeof(set), &set) != 0) CPU_ZERO(&set);
  return set;
}

// Narrows the calling test thread to the first n CPUs of its affinity
// mask (it acts on this process only) and restores the mask on exit.
// Rank threads spawned meanwhile inherit the narrowed mask.
class NarrowAffinity {
 public:
  explicit NarrowAffinity(int n) : saved_(own_mask()) {
    CPU_ZERO(&narrow_);
    for (int c = 0, got = 0; c < CPU_SETSIZE && got < n; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &narrow_);
        ++got;
      }
    }
    EXPECT_EQ(0, pthread_setaffinity_np(pthread_self(), sizeof(narrow_),
                                        &narrow_));
  }
  ~NarrowAffinity() {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  NarrowAffinity(const NarrowAffinity&) = delete;
  NarrowAffinity& operator=(const NarrowAffinity&) = delete;
  const cpu_set_t& mask() const { return narrow_; }

 private:
  cpu_set_t saved_;
  cpu_set_t narrow_;
};

TEST(KernelPool, PinnedRankStaysInsideInheritedAffinityMask) {
  // Narrow this test thread to one CPU of its mask (it acts on this
  // process only), then run ranks: each rank thread inherits the
  // one-CPU mask, so its slice, and every pool worker pinned inside it,
  // must stay on that CPU — not on CPUs counted from 0 up to the
  // host's core count.
  const NarrowAffinity narrowed(1);
  const cpu_set_t& one = narrowed.mask();
  ScopedEnv env("MLS_KERNEL_THREADS", "2");
  const std::set<pid_t> before = thread_ids();
  const int64_t m = 96, n = 96, k = 96;  // above the pool's grain
  const std::vector<float> a = random_vec(m * k, 3);
  const std::vector<float> b = random_vec(k * n, 4);
  spmd::run(2, [&](comm::Comm& c) {
    std::vector<float> out(static_cast<size_t>(m * n));
    kernels::gemm(a.data(), b.data(), out.data(), m, n, k, false, false);
    EXPECT_GE(kernels::local_pool_stats().workers, 1);
    // Both ranks' workers are alive (pools die with their rank thread)
    // until the second barrier.
    c.barrier();
    if (c.rank() == 0) {
      int checked = 0;
      for (pid_t tid : thread_ids()) {
        if (before.count(tid) != 0) continue;
        const cpu_set_t got = mask_of(tid);
        if (CPU_COUNT(&got) == 0) continue;
        EXPECT_TRUE(CPU_EQUAL(&got, &one))
            << "thread " << tid << " may run on " << CPU_COUNT(&got)
            << " CPUs outside the inherited mask";
        ++checked;
      }
      EXPECT_GE(checked, 4) << "two rank threads and a worker each";
    }
    c.barrier();
  });
}

TEST(KernelPool, EachRankOwnsADisjointSliceWithOneCpuPerWorker) {
  // The default layout, no env set: each rank thread is pinned to its
  // own slice of the mask it inherits, the two slices are disjoint, and
  // each of the rank's pool workers (slice size - 1 of them at the
  // default thread count) is pinned to one CPU of that slice, no two
  // on the same CPU. The ranks run their first threaded GEMM in turn,
  // so the threads that appear during a rank's turn are its workers.
  const cpu_set_t all = own_mask();
  if (CPU_COUNT(&all) < 2) GTEST_SKIP() << "two disjoint slices need 2 CPUs";
  ScopedEnv env("MLS_KERNEL_THREADS", "0");  // the default, whatever is set
  const std::set<pid_t> before = thread_ids();
  const int64_t m = 96, n = 96, k = 96;  // above the pool's grain
  const std::vector<float> a = random_vec(m * k, 5);
  const std::vector<float> b = random_vec(k * n, 6);
  pid_t rank_tid[2] = {0, 0};
  cpu_set_t slice[2];
  std::set<pid_t> after_turn[2];
  spmd::run(2, [&](comm::Comm& c) {
    const int r = c.rank();
    rank_tid[r] = static_cast<pid_t>(syscall(SYS_gettid));
    slice[r] = own_mask();
    c.barrier();  // both rank threads exist before either turn
    for (int turn = 0; turn < 2; ++turn) {
      if (turn == r) {
        std::vector<float> out(static_cast<size_t>(m * n));
        kernels::gemm(a.data(), b.data(), out.data(), m, n, k, false, false);
        after_turn[r] = thread_ids();
      }
      c.barrier();
    }
    if (r == 0) {  // both pools are alive until the last barrier
      cpu_set_t shared;
      CPU_AND(&shared, &slice[0], &slice[1]);
      EXPECT_EQ(0, CPU_COUNT(&shared)) << "the ranks' slices overlap";
      for (int q = 0; q < 2; ++q) {
        cpu_set_t inside;
        CPU_AND(&inside, &slice[q], &all);
        EXPECT_TRUE(CPU_EQUAL(&inside, &slice[q]))
            << "rank " << q << "'s slice leaves the inherited mask";
        const std::set<pid_t>& earlier = q == 0 ? before : after_turn[0];
        std::set<int> cpus;
        int workers = 0;
        for (pid_t tid : after_turn[q]) {
          if (earlier.count(tid) != 0 || tid == rank_tid[0] ||
              tid == rank_tid[1])
            continue;
          ++workers;
          const cpu_set_t got = mask_of(tid);
          // No ASSERT here: returning early would strand rank 1 at the
          // last barrier.
          EXPECT_EQ(1, CPU_COUNT(&got)) << "rank " << q << " worker " << tid;
          if (CPU_COUNT(&got) != 1) continue;
          int cpu = 0;
          while (!CPU_ISSET(cpu, &got)) ++cpu;
          EXPECT_TRUE(CPU_ISSET(cpu, &slice[q]))
              << "rank " << q << " worker on CPU " << cpu
              << " outside its slice";
          EXPECT_TRUE(cpus.insert(cpu).second)
              << "two of rank " << q << "'s workers share CPU " << cpu;
        }
        EXPECT_EQ(CPU_COUNT(&slice[q]) - 1, workers) << "rank " << q;
      }
    }
    c.barrier();
  });
}

TEST(KernelPool, DefaultThreadsAreTheRankSliceSize) {
  // Under a test thread narrowed to 3 CPUs, rank 0 of 2 owns the
  // mask's index [0, 1) and rank 1 owns [1, 3), so with no env set
  // they default to 1 and 2 kernel threads: the slice, not a count of
  // the whole process's CPUs divided by the world size.
  const cpu_set_t all = own_mask();
  if (CPU_COUNT(&all) < 3) GTEST_SKIP() << "needs 3 CPUs";
  const NarrowAffinity narrowed(3);
  ScopedEnv env("MLS_KERNEL_THREADS", "0");  // the default, whatever is set
  int threads[2] = {0, 0};
  spmd::run(2, [&](comm::Comm& c) { threads[c.rank()] = kernels::threads(); });
  EXPECT_EQ(1, threads[0]);
  EXPECT_EQ(2, threads[1]);
}
#endif

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

// ------------------------------------------------------ triangle modes

// A [rows, cols] row-major operand whose entries past each row's causal
// diagonal (cols > row for lower, cols < row for upper, in logical
// coordinates) are exact zeros, alternately +0 and -0, stored as op(A)
// or, with trans, as its transpose.
std::vector<float> triangular(int64_t rows, int64_t cols, bool lower,
                              bool trans, uint64_t seed) {
  std::vector<float> v = random_vec(rows * cols, seed);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t kk = 0; kk < cols; ++kk) {
      if (lower ? kk <= i : kk >= i) continue;
      const int64_t at = trans ? kk * rows + i : i * cols + kk;
      v[static_cast<size_t>(at)] = (i + kk) % 2 == 0 ? 0.0f : -0.0f;
    }
  }
  return v;
}

// Each triangle mode against the full GEMM on the live region, bitwise,
// at 1/2/4 threads. The reference is the full GEMM at one thread over a
// wider op(B) (2·nr + 1 columns, so A is packed), cut to the first n
// columns: with n = nr or less the triangle GEMM reads A in place, so
// this also holds the in-place A path to the packed one on every ISA.
// s straddles MR, NR, MC (96) and KC (256): at s = 257 and 300 a kAUpper
// tile's first live panel starts at k = 256 and must write, not add.
TEST(KernelGemm, TriangleModesMatchFullGemm) {
  const kernels::GemmTile tile = kernels::gemm_tile();
  const int64_t wide = 2 * tile.nr + 1;
  for (const int64_t s : {1, 7, 97, 257, 300}) {
    // kALower / kAUpper: op(A) is [s, s] and triangular, op(B) [s, n].
    for (const kernels::Tri mode :
         {kernels::Tri::kALower, kernels::Tri::kAUpper}) {
      const bool lower = mode == kernels::Tri::kALower;
      for (const int64_t n : {tile.nr, int64_t{3}, wide}) {
        for (int t = 0; t < 4; ++t) {
          const bool trans_a = (t & 1) != 0, trans_b = (t & 2) != 0;
          const std::vector<float> a = triangular(s, s, lower, trans_a, 7 + s);
          const std::vector<float> b = random_vec(s * wide, 8 + s);
          // op(B)'s first n columns, in n-column storage.
          std::vector<float> bn(static_cast<size_t>(s * n));
          for (int64_t kk = 0; kk < s; ++kk) {
            for (int64_t j = 0; j < n; ++j) {
              bn[static_cast<size_t>(trans_b ? j * s + kk : kk * n + j)] =
                  b[static_cast<size_t>(trans_b ? j * s + kk : kk * wide + j)];
            }
          }
          std::vector<float> full(static_cast<size_t>(s * wide));
          {
            ScopedEnv env("MLS_KERNEL_THREADS", "1");
            kernels::gemm(a.data(), b.data(), full.data(), s, wide, s, trans_a,
                          trans_b);
          }
          for (const char* nt : {"1", "2", "4"}) {
            ScopedEnv env("MLS_KERNEL_THREADS", nt);
            std::vector<float> c(static_cast<size_t>(s * n), -1.0f);
            kernels::gemm(a.data(), bn.data(), c.data(), s, n, s, trans_a,
                          trans_b, mode);
            for (int64_t i = 0; i < s; ++i) {
              ASSERT_EQ(0, std::memcmp(c.data() + i * n, full.data() + i * wide,
                                       sizeof(float) * static_cast<size_t>(n)))
                  << (lower ? "kALower" : "kAUpper") << " s=" << s
                  << " n=" << n << " trans_a=" << trans_a
                  << " trans_b=" << trans_b << " threads=" << nt
                  << " row " << i;
            }
          }
        }
      }
    }
    // kOut: C = op(A) op(B) is [s, s], live where j <= i; k = d straddles
    // KC too.
    for (const int64_t k : {tile.nr, int64_t{300}}) {
      for (int t = 0; t < 4; ++t) {
        const bool trans_a = (t & 1) != 0, trans_b = (t & 2) != 0;
        const std::vector<float> a = random_vec(s * k, 9 + s);
        const std::vector<float> b = random_vec(k * s, 10 + s);
        std::vector<float> full(static_cast<size_t>(s * s));
        {
          ScopedEnv env("MLS_KERNEL_THREADS", "1");
          kernels::gemm(a.data(), b.data(), full.data(), s, s, k, trans_a,
                        trans_b);
        }
        for (const char* nt : {"1", "2", "4"}) {
          ScopedEnv env("MLS_KERNEL_THREADS", nt);
          std::vector<float> c(static_cast<size_t>(s * s), -1.0f);
          kernels::gemm(a.data(), b.data(), c.data(), s, s, k, trans_a, trans_b,
                        kernels::Tri::kOut);
          for (int64_t i = 0; i < s; ++i) {
            const size_t live = sizeof(float) * static_cast<size_t>(i + 1);
            ASSERT_EQ(0, std::memcmp(c.data() + i * s, full.data() + i * s,
                                     live))
                << "kOut s=" << s << " k=" << k << " trans_a=" << trans_a
                << " trans_b=" << trans_b << " threads=" << nt << " row " << i;
          }
        }
      }
    }
  }
}

// kOut is the one exception to beta = 0: an MR x NR tile wholly above
// the diagonal is never written. A sentinel in every dead tile survives,
// on both the row-slab path (s > short_m) and the column-slab path.
TEST(KernelGemm, TriOutLeavesDeadTilesUntouched) {
  const kernels::GemmTile tile = kernels::gemm_tile();
  const float sentinel = 12345.0f;
  for (const int64_t s :
       {int64_t{7}, tile.short_m, int64_t{97}, int64_t{300}}) {
    const int64_t k = 32;
    const std::vector<float> a = random_vec(s * k, 51);
    const std::vector<float> b = random_vec(s * k, 52);
    for (const char* nt : {"1", "2", "4"}) {
      ScopedEnv env("MLS_KERNEL_THREADS", nt);
      std::vector<float> c(static_cast<size_t>(s * s), sentinel);
      kernels::gemm(a.data(), b.data(), c.data(), s, s, k, false, true,
                    kernels::Tri::kOut);
      int64_t dead = 0;
      for (int64_t i = 0; i < s; ++i) {
        const int64_t tile_last_row = (i / tile.mr + 1) * tile.mr - 1;
        for (int64_t j = 0; j < s; ++j) {
          const float v = c[static_cast<size_t>(i * s + j)];
          if (j <= i) {
            ASSERT_NE(v, sentinel) << "live element unwritten s=" << s
                                   << " (" << i << ", " << j << ")";
          } else if ((j / tile.nr) * tile.nr > tile_last_row) {
            ++dead;
            ASSERT_EQ(v, sentinel) << "dead tile written s=" << s << " ("
                                   << i << ", " << j << ") threads=" << nt;
          }
        }
      }
      if (s >= 97) {
        EXPECT_GT(dead, 0) << "s=" << s;
      }
    }
  }
}

// ---------------------------------------------------- leading dimensions

// A [rows, cols] row-major matrix stored in rows of ld >= cols floats,
// the padding filled with `pad`: a strided GEMM operand, as a (batch,
// head) slice of the attention core's [s, b, 3h/t] QKV output is.
std::vector<float> with_row_stride(const std::vector<float>& x, int64_t rows,
                                   int64_t cols, int64_t ld, float pad) {
  std::vector<float> y(static_cast<size_t>(rows * ld), pad);
  for (int64_t i = 0; i < rows; ++i) {
    std::copy_n(x.begin() + i * cols, cols, y.begin() + i * ld);
  }
  return y;
}

// Leading dimensions only address a matrix inside a larger row-major
// tensor: for every transpose pair and triangle mode, a GEMM on strided
// A, B and C equals the contiguous GEMM bit for bit (on the live region
// under kOut), at 1, 2 and 4 threads and through gemm_ref under
// MLS_KERNEL_REF=1, and leaves C's row padding unwritten. Shapes
// straddle MR, NR and KC (256); n = nr takes the in-place A path and
// m <= short_m the in-place B path.
TEST(KernelGemm, LeadingDimsMatchContiguousGemm) {
  const kernels::GemmTile tile = kernels::gemm_tile();
  struct Case {
    kernels::Tri tri;
    int64_t m, n, k;
  };
  std::vector<Case> cases = {{kernels::Tri::kNone, 1, 3, 5},
                             {kernels::Tri::kNone, tile.short_m, tile.nr, 300},
                             {kernels::Tri::kNone, tile.mr + 1, 2 * tile.nr + 1, 257},
                             {kernels::Tri::kNone, 97, tile.nr, 33}};
  for (const int64_t s : {7, 97, 300}) {
    cases.push_back({kernels::Tri::kOut, s, s, tile.nr});
    for (const int64_t n : {int64_t{3}, tile.nr, 2 * tile.nr + 1}) {
      cases.push_back({kernels::Tri::kALower, s, n, s});
      cases.push_back({kernels::Tri::kAUpper, s, n, s});
    }
  }
  const float pad = 12345.0f;
  for (const Case& cs : cases) {
    const auto [tri, m, n, k] = cs;
    for (int t = 0; t < 4; ++t) {
      const bool trans_a = (t & 1) != 0, trans_b = (t & 2) != 0;
      const uint64_t seed = static_cast<uint64_t>(m * 131 + n * 7 + k + t);
      const bool tri_a = tri == kernels::Tri::kALower || tri == kernels::Tri::kAUpper;
      const std::vector<float> a =
          tri_a ? triangular(m, k, tri == kernels::Tri::kALower, trans_a, seed)
                : random_vec(m * k, seed);
      const std::vector<float> b = random_vec(k * n, seed + 1);
      // Storage shapes, and row strides that are odd and wider than them.
      const int64_t a_rows = trans_a ? k : m, a_cols = trans_a ? m : k;
      const int64_t b_rows = trans_b ? n : k, b_cols = trans_b ? k : n;
      const int64_t lda = a_cols + 3, ldb = b_cols + 5, ldc = n + 7;
      const std::vector<float> as = with_row_stride(a, a_rows, a_cols, lda, pad);
      const std::vector<float> bs = with_row_stride(b, b_rows, b_cols, ldb, pad);
      for (const char* mode : {"1", "2", "4", "ref"}) {
        const bool ref = std::string(mode) == "ref";
        ScopedEnv threads("MLS_KERNEL_THREADS", ref ? "1" : mode);
        ScopedEnv reference("MLS_KERNEL_REF", ref ? "1" : "0");
        std::vector<float> want(static_cast<size_t>(m * n), -1.0f);
        kernels::gemm(a.data(), b.data(), want.data(), m, n, k, trans_a,
                      trans_b, tri);
        std::vector<float> got(static_cast<size_t>(m * ldc), pad);
        kernels::gemm(as.data(), bs.data(), got.data(), m, n, k, trans_a,
                      trans_b, tri, lda, ldb, ldc);
        for (int64_t i = 0; i < m; ++i) {
          const int64_t live = tri == kernels::Tri::kOut ? i + 1 : n;
          const float* row = got.data() + i * ldc;
          ASSERT_EQ(0, std::memcmp(row, want.data() + i * n,
                                   sizeof(float) * static_cast<size_t>(live)))
              << "tri=" << static_cast<int>(tri) << " m=" << m << " n=" << n
              << " k=" << k << " trans_a=" << trans_a << " trans_b=" << trans_b
              << " mode=" << mode << " row " << i;
          for (int64_t j = n; j < ldc; ++j) {
            ASSERT_EQ(row[j], pad) << "padding written: m=" << m << " n=" << n
                                   << " k=" << k << " mode=" << mode
                                   << " row " << i << " col " << j;
          }
        }
      }
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
  // The folded-TSP fused MLP node (bias_gelu_matmul) runs its interior
  // through ops:: and therefore through the worker pool. Forward values
  // and every grad must be bitwise identical at 1 vs 4 pinned threads —
  // including the backward recompute-from-saved-x pass. (The attention
  // core's saved sets, the folded scores set included, are held to the
  // single-thread unfused chain at 1, 2 and 4 threads by test_plans'
  // StreamedAttentionCore.BitwiseEqualToMaterializedCore.)
  Rng rng(57);
  const int64_t rows = 256, h = 128, out = 112;
  Tensor xv = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bv = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor wv = Tensor::randn(Shape{{h, out}}, rng);
  Tensor dy = Tensor::randn(Shape{{rows, out}}, rng);

  struct Run {
    Tensor y, dx, dbias, dw;
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
    return r;
  };

  Run one;
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    one = run_once();
  }
  ScopedEnv env("MLS_KERNEL_THREADS", "4");
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
}

// ------------------------------------------------ stateless dropout

// The per-element coordinate walk the row kernel replaced: keep iff
// splitmix64(seed ^ gidx) >= p * (2^64 - 1), with gidx stepped through
// the map's global strides one local element at a time. Any map,
// any stride order. Its mask is the float 0/1 tensor the kernel wrote
// before masks were bytes.
struct WalkOut {
  Tensor y;
  Tensor mask;  // float 0/1
};
WalkOut dropout_coordinate_walk(const Tensor& x, float p, uint64_t seed,
                                const ops::IndexMap& map) {
  auto hash64 = [](uint64_t v) {
    v += 0x9e3779b97f4a7c15ull;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
    return v ^ (v >> 31);
  };
  WalkOut out;
  out.y = Tensor::empty(x.shape(), x.dtype());
  out.mask = Tensor::empty(x.shape());
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

// A U8 mask widened to the float 0/1 tensor it used to be stored as.
Tensor widen(const Tensor& mask) {
  Tensor f = Tensor::empty(mask.shape());
  for (int64_t i = 0; i < mask.numel(); ++i)
    f.data()[i] = static_cast<float>(mask.u8()[i]);
  return f;
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
      const WalkOut want = dropout_coordinate_walk(x, p, 0xd00d, c.map);
      for (const char* nt : {"1", "2", "4"}) {
        ScopedEnv env("MLS_KERNEL_THREADS", nt);
        const ops::DropoutOut got = ops::dropout_stateless(x, p, 0xd00d, c.map);
        EXPECT_TRUE(bitwise_equal(got.y, want.y))
            << c.name << " p=" << p << " threads=" << nt;
        EXPECT_TRUE(bitwise_equal(widen(got.mask), want.mask))
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
    EXPECT_EQ(widen(out.mask).sum(), static_cast<float>(x.numel())) << c.name;
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
      want.data()[i] =
          dy.data()[i] * static_cast<float>(out.mask.u8()[i]) * inv_keep;
    for (const char* nt : {"1", "2", "4"}) {
      ScopedEnv env("MLS_KERNEL_THREADS", nt);
      EXPECT_TRUE(bitwise_equal(ops::dropout_grad(dy, out.mask, 0.1f), want))
          << c.name << " threads=" << nt;
    }
  }
}

// The causal row kernels the attention core runs: dropout, its grad and
// the softmax grad over [sq, sk] rows read only each row's live prefix
// (qi + 1 entries) and write 0 past it. On the prefix they equal the full
// kernels bit for bit; over causal softmax output (dead entries +0) the
// dropout's y equals the full kernel's everywhere. One [s, s] block
// (the core's slice, split by equal work) and an [nb, s, s] tensor (split
// by rows), at 1/2/4 threads.
TEST(KernelDropout, CausalFormsMatchFullKernelsOnLivePrefix) {
  for (const int64_t s : {1, 7, 97, 300}) {
    for (const int64_t nb : {1, 3}) {
      const int64_t rows = nb * s, n = rows * s;
      ops::IndexMap map;  // nb slices of a global [2·nb, s, s] tensor
      map.dims = {nb, s, s};
      map.strides = {2 * s * s, s, 1};
      map.base = s * s;
      Rng rng(static_cast<uint64_t>(s + nb));
      const Tensor x = Tensor::randn(Shape{{rows, s}}, rng);
      const Tensor dy = Tensor::randn(Shape{{rows, s}}, rng);
      std::vector<float> probs(static_cast<size_t>(n));
      kernels::scaled_softmax(x.data(), probs.data(), rows, s, s, 0.5f, true);
      // The full kernels, at one thread.
      std::vector<float> y_full(static_cast<size_t>(n)), g_full(y_full.size()),
          sg_full(y_full.size()), yp_full(y_full.size());
      std::vector<uint8_t> m_full(y_full.size());
      {
        ScopedEnv env("MLS_KERNEL_THREADS", "1");
        kernels::dropout_stateless(x.data(), y_full.data(), m_full.data(),
                                   map.dims.data(), map.strides.data(), 3,
                                   map.base, 41, 0.1f);
        kernels::dropout_stateless(probs.data(), yp_full.data(), nullptr,
                                   map.dims.data(), map.strides.data(), 3,
                                   map.base, 41, 0.1f);
        kernels::dropout_grad(dy.data(), m_full.data(), g_full.data(), n, 0.1f);
        kernels::scaled_softmax_grad(probs.data(), dy.data(), sg_full.data(),
                                     rows, s, 0.5f);
      }
      for (const char* nt : {"1", "2", "4"}) {
        ScopedEnv env("MLS_KERNEL_THREADS", nt);
        std::vector<float> y(y_full.size(), -1.0f), g(y.size(), -1.0f),
            sg(y.size(), -1.0f), yp(y.size(), -1.0f);
        std::vector<uint8_t> m(y.size(), 7);
        kernels::dropout_stateless(x.data(), y.data(), m.data(),
                                   map.dims.data(), map.strides.data(), 3,
                                   map.base, 41, 0.1f, /*causal=*/true);
        kernels::dropout_stateless(probs.data(), yp.data(), nullptr,
                                   map.dims.data(), map.strides.data(), 3,
                                   map.base, 41, 0.1f, /*causal=*/true);
        kernels::dropout_grad(dy.data(), m_full.data(), g.data(), rows, s, s,
                              0.1f, /*causal=*/true);
        kernels::scaled_softmax_grad(probs.data(), dy.data(), sg.data(), rows,
                                     s, s, 0.5f, /*causal=*/true);
        const std::string where = "s=" + std::to_string(s) + " nb=" +
                                  std::to_string(nb) + " threads=" + nt;
        EXPECT_EQ(0, std::memcmp(yp.data(), yp_full.data(),
                                 sizeof(float) * yp.size()))
            << "dropout over softmax output " << where;
        for (int64_t r = 0; r < rows; ++r) {
          const int64_t live = r % s + 1;
          const size_t row = static_cast<size_t>(r * s);
          const size_t live_bytes = sizeof(float) * static_cast<size_t>(live);
          ASSERT_EQ(0, std::memcmp(y.data() + row, y_full.data() + row,
                                   live_bytes))
              << "dropout y " << where << " row " << r;
          ASSERT_EQ(0, std::memcmp(m.data() + row, m_full.data() + row,
                                   static_cast<size_t>(live)))
              << "dropout mask " << where << " row " << r;
          ASSERT_EQ(0, std::memcmp(g.data() + row, g_full.data() + row,
                                   live_bytes))
              << "dropout_grad " << where << " row " << r;
          ASSERT_EQ(0, std::memcmp(sg.data() + row, sg_full.data() + row,
                                   live_bytes))
              << "scaled_softmax_grad " << where << " row " << r;
          for (int64_t j = live; j < s; ++j) {
            const size_t at = row + static_cast<size_t>(j);
            // +0 exactly: the bits, not just the value.
            ASSERT_EQ(std::bit_cast<uint32_t>(y[at]), 0u) << where;
            ASSERT_EQ(m[at], 0) << where;
            ASSERT_EQ(std::bit_cast<uint32_t>(g[at]), 0u) << where;
            ASSERT_EQ(std::bit_cast<uint32_t>(sg[at]), 0u) << where;
          }
        }
      }
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

// Pool allocate() calls made by fn on this thread.
template <typename F>
int64_t pool_allocs(F&& fn) {
  auto& pool = *memory::PoolAllocator::this_thread();
  const int64_t before = pool.stats().allocs;
  fn();
  return pool.stats().allocs - before;
}

TEST(KernelDropout, NoGradForwardDrawsNoMask) {
  // A mask is drawn only for the node that saves it: under NoGradGuard
  // ag::dropout skips exactly one allocation (the mask) and returns the
  // grad-mode output bit for bit. (test_plans checks the attention
  // core's no-grad forward:
  // StreamedAttentionCore.NoGradForwardKeepsNothingAndDrawsNoMask.)
  Rng rng(95);
  const ops::IndexMap map = ops::IndexMap::identity(Shape{{4, 33, 33}});
  const Tensor xv = Tensor::randn(Shape(map.dims), rng);
  ag::Var x(xv, true);
  ag::Var y_grad, y_nograd;
  const int64_t grad =
      pool_allocs([&] { y_grad = ag::dropout(x, 0.1f, 3, map); });
  ag::NoGradGuard no_grad;
  const int64_t nograd =
      pool_allocs([&] { y_nograd = ag::dropout(x, 0.1f, 3, map); });
  EXPECT_EQ(nograd, 1);  // y only
  EXPECT_EQ(grad, 2);    // y and the mask
  EXPECT_FALSE(y_nograd.requires_grad());
  EXPECT_TRUE(bitwise_equal(y_nograd.value(), y_grad.value()));
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
  // in a -DMLS_KERNEL_NATIVE=OFF build too). The mask checksums hash
  // the float 0/1 mask the walk stored, so the byte mask is widened.
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
    EXPECT_EQ(fnv1a(widen(a.mask)), 0x8cb7779c92e47de5ull) << "threads=" << nt;
    const ops::DropoutOut b =
        ops::dropout_stateless(ramp(Shape{{32, 3, 40}}), 0.5f, 1234567, sp);
    EXPECT_EQ(fnv1a(b.y), 0xd173f93291c48903ull) << "threads=" << nt;
    EXPECT_EQ(fnv1a(widen(b.mask)), 0xc031b972ec3b2b98ull) << "threads=" << nt;
  }
}

// ------------------------------------------- paged decode attention

// A sequence of max_ctx positions in a paged cache of bt-position
// blocks: K and V as contiguous [max_ctx, d] rows (the gathered form the
// old decode chain consumed) and the same values scattered into blocks,
// K transposed [d, bt] at a nonzero offset and V [bt, d] after it, the
// way serve::KVCache lays a (layer, head) slice out.
struct PagedSeq {
  std::vector<float> k, v;
  std::vector<std::vector<float>> blocks;
  std::vector<const float*> ptrs;
  kernels::PagedKV kv;
};

PagedSeq make_paged_seq(int64_t max_ctx, int64_t bt, int64_t d,
                        uint64_t seed) {
  PagedSeq ps;
  ps.k = random_vec(max_ctx * d, seed);
  ps.v = random_vec(max_ctx * d, seed + 1);
  const int64_t pad = 3;
  ps.kv.block_tokens = bt;
  ps.kv.k_offset = pad;
  ps.kv.v_offset = pad + d * bt;
  const int64_t nblocks = (max_ctx + bt - 1) / bt;
  for (int64_t b = 0; b < nblocks; ++b) {
    // NaN canaries in the pad and past the last live position.
    std::vector<float> blk(static_cast<size_t>(pad + 2 * d * bt),
                           std::numeric_limits<float>::quiet_NaN());
    for (int64_t t = 0; t < bt && b * bt + t < max_ctx; ++t) {
      const int64_t pos = b * bt + t;
      for (int64_t i = 0; i < d; ++i) {
        blk[static_cast<size_t>(ps.kv.k_offset + i * bt + t)] =
            ps.k[static_cast<size_t>(pos * d + i)];
        blk[static_cast<size_t>(ps.kv.v_offset + t * d + i)] =
            ps.v[static_cast<size_t>(pos * d + i)];
      }
    }
    ps.blocks.push_back(std::move(blk));
  }
  for (const auto& blk : ps.blocks) ps.ptrs.push_back(blk.data());
  ps.kv.blocks = ps.ptrs.data();
  return ps;
}

// For every (block_tokens, d, len) of the grid, decode_attention's
// scores, probs and context equal the chain it replaced — gather,
// gemm(q, Kᵀ), scaled_softmax on the [1, len] causal row, gemm(p, V) —
// bit for bit, under whichever GEMM the environment selects. max_ctx
// exceeds KC = 256 so the context chain splits; d = 261 splits the
// score chain; d = 37 is no multiple of any vector width; bt = 20 mixes
// whole and partial vectors of K columns in one block.
void expect_decode_attention_matches_gemm_chain() {
  const int64_t max_ctx = 300;
  for (int64_t bt : {1, 3, 16, 20}) {
    for (int64_t d : {8, 16, 64, 37, 261}) {
      const PagedSeq ps = make_paged_seq(max_ctx, bt, d, 7 + bt * 131 + d);
      const std::vector<float> q = random_vec(d, 11 + d);
      const float alpha = 1.0f / std::sqrt(static_cast<float>(d));
      std::vector<int64_t> lens = {1, bt, bt + 1, 256, 257, max_ctx};
      if (bt > 1) lens.push_back(bt - 1);
      for (int64_t len : lens) {
        SCOPED_TRACE("bt=" + std::to_string(bt) + " d=" + std::to_string(d) +
                     " len=" + std::to_string(len));
        const size_t n = static_cast<size_t>(len);
        std::vector<float> s_old(n), p_old(n), c_old(static_cast<size_t>(d));
        kernels::gemm(q.data(), ps.k.data(), s_old.data(), 1, len, d,
                      /*trans_a=*/false, /*trans_b=*/true);
        kernels::scaled_softmax(s_old.data(), p_old.data(), 1, 1, len, alpha,
                                /*causal=*/true);
        kernels::gemm(p_old.data(), ps.v.data(), c_old.data(), 1, d, len);

        std::vector<float> s_new(n), p_new(n),
            c_new(static_cast<size_t>(d), std::nanf(""));
        kernels::decode_attention(q.data(), ps.kv, len, d, alpha,
                                  s_new.data(), p_new.data(), c_new.data());
        EXPECT_EQ(0, std::memcmp(s_old.data(), s_new.data(),
                                 sizeof(float) * n));
        EXPECT_EQ(0, std::memcmp(p_old.data(), p_new.data(),
                                 sizeof(float) * n));
        EXPECT_EQ(0, std::memcmp(c_old.data(), c_new.data(),
                                 sizeof(float) * static_cast<size_t>(d)));
      }
    }
  }
}

TEST(KernelDecodeAttention, MatchesBlockedGemmChainBitwise) {
  ScopedEnv env("MLS_KERNEL_THREADS", "1");
  expect_decode_attention_matches_gemm_chain();
}

TEST(KernelDecodeAttention, MatchesReferenceGemmChainUnderKernelRef) {
  ScopedEnv env("MLS_KERNEL_REF", "1");
  expect_decode_attention_matches_gemm_chain();
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
