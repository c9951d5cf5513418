// Microbenchmarks of the numeric kernels underlying the simulator —
// the blocked GEMM substrate (tensor/kernels.h), its fused epilogues,
// and the specialized attention-layout transposes.
//
// Three modes:
//   bench_kernels              google-benchmark suite (as before)
//   bench_kernels --smoke      fast correctness-only checks, exit 0/1
//                              (run in CI; no timing thresholds)
//   bench_kernels --json[=p]   min-of-N wall-clock kernel timings
//                              written to p (default BENCH_kernels.json):
//                              pre-PR scalar vs single-threaded blocked
//                              GFLOP/s, thread scaling, short-M (decode)
//                              GEMMs, fused-vs-composed sweeps, and
//                              stateless dropout (1-byte mask) vs the
//                              pre-PR coordinate walk (float mask).
//
// The "before" datum is a verbatim replica of the seed scalar GEMM
// (below), compiled with this file's default flags — the same flags
// the pre-PR ops.cpp kernel was built with, so the comparison is
// honest even though the substrate now compiles with its own codegen
// options.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/env.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

using namespace mls;

namespace {

// ------------------------------------------------ pre-PR scalar GEMM
// Seed kernel (ops.cpp before the blocked substrate), kept verbatim —
// including the data-dependent zero-skip the substrate removed — as
// the speedup baseline.
void gemm_prepr(const float* a, const float* b, float* c, int64_t m, int64_t n,
                int64_t k, bool trans_a, bool trans_b) {
  auto A = [&](int64_t i, int64_t kk) {
    return trans_a ? a[kk * m + i] : a[i * k + kk];
  };
  if (!trans_b) {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = A(i, kk);
        if (av == 0.0f) continue;
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        double acc = 0.0;
        for (int64_t kk = 0; kk < k; ++kk) acc += A(i, kk) * brow[kk];
        crow[j] += static_cast<float>(acc);
      }
    }
  }
}

// Seed stateless dropout (ops.cpp before the row kernel), kept as the
// smoke oracle and the --json baseline: one N-d coordinate step per
// element through the map's global strides, compiled with this file's
// flags as ops.cpp was.
uint64_t hash64_prepr(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
void dropout_prepr(const float* x, float* y, float* mask, float p,
                   uint64_t seed, const ops::IndexMap& map) {
  const float inv_keep = 1.0f / (1.0f - p);
  const auto threshold = static_cast<uint64_t>(p * 18446744073709551615.0);
  const size_t nd = map.dims.size();
  std::vector<int64_t> coord(nd, 0);
  int64_t n = 1;
  for (int64_t d : map.dims) n *= d;
  int64_t gidx = map.base;
  for (int64_t i = 0; i < n; ++i) {
    const bool keep =
        hash64_prepr(seed ^ static_cast<uint64_t>(gidx)) >= threshold;
    mask[i] = keep ? 1.0f : 0.0f;
    y[i] = keep ? x[i] * inv_keep : 0.0f;
    for (size_t d = nd; d-- > 0;) {
      gidx += map.strides[d];
      if (++coord[d] < map.dims[d]) break;
      gidx -= map.strides[d] * map.dims[d];
      coord[d] = 0;
    }
  }
}

// train_sp_selective's attention probs on TP rank 1 of 2: the global
// [b=1, a=8, s=512, s=512] tensor, local heads [4, 8).
ops::IndexMap attention_probs_map() {
  ops::IndexMap map;
  map.dims = {1, 4, 512, 512};
  map.strides = {8 * 512 * 512, 512 * 512, 512, 1};
  map.base = 4 * 512 * 512;
  return map;
}

std::vector<float> random_vec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::randn(Shape{{n}}, rng);
  std::vector<float> v(static_cast<size_t>(n));
  std::memcpy(v.data(), t.data(), sizeof(float) * static_cast<size_t>(n));
  return v;
}

// Best-of-reps wall-clock seconds for fn().
template <typename F>
double min_time(F&& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// ----------------------------------------------------------- --smoke
// Correctness checks cheap enough for CI — the blocked kernel vs the
// scalar reference, thread-count bit identity, short-M rows vs the same
// rows of a tall GEMM, the fused epilogues vs their composed forms —
// plus one coarse perf gate: on hosts with >= 4
// cores, 4-thread GEMM must beat single-thread by >= 1.5x (half of
// ideal, loose enough for noisy CI; it exists to catch the pool
// regressing to negative scaling, which is what this PR fixed). The
// gate skips gracefully on smaller runners; fine-grained numbers come
// from --json runs.
int run_smoke() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("smoke: %-50s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  {  // blocked vs reference, tile-straddling shape, all trans variants
    const int64_t m = 67, n = 50, k = 33;
    const std::vector<float> a = random_vec(m * k, 1);
    const std::vector<float> b = random_vec(k * n, 2);
    bool ok = true;
    for (int ta = 0; ta < 2 && ok; ++ta) {
      for (int tb = 0; tb < 2 && ok; ++tb) {
        std::vector<float> c_ref(static_cast<size_t>(m * n), 0.f);
        std::vector<float> c_blk(static_cast<size_t>(m * n), 0.f);
        kernels::gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k, ta, tb);
        kernels::gemm(a.data(), b.data(), c_blk.data(), m, n, k, ta, tb);
        for (int64_t i = 0; i < m * n && ok; ++i) {
          ok = std::fabs(c_ref[static_cast<size_t>(i)] -
                         c_blk[static_cast<size_t>(i)]) < 2e-3f;
        }
      }
    }
    check(ok, "blocked GEMM matches reference");
  }

  {  // 1-vs-4-thread bit identity above the parallel grain
    const int64_t m = 130, n = 97, k = 256;
    const std::vector<float> a = random_vec(m * k, 3);
    const std::vector<float> b = random_vec(k * n, 4);
    std::vector<float> c1(static_cast<size_t>(m * n));
    std::vector<float> c4(static_cast<size_t>(m * n));
    kernels::gemm(a.data(), b.data(), c1.data(), m, n, k, false, false);
    core::Env::set("MLS_KERNEL_THREADS", "4");
    kernels::gemm(a.data(), b.data(), c4.data(), m, n, k, false, false);
    core::Env::clear("MLS_KERNEL_THREADS");
    check(std::memcmp(c1.data(), c4.data(), sizeof(float) * c1.size()) == 0,
          "1-vs-4-thread GEMM bit-identical");
  }

  {  // short-M rows (B read in place) equal the same rows of a tall GEMM
    const kernels::GemmTile tile = kernels::gemm_tile();
    const int64_t tall = 64, n = 2 * tile.nr + 3, k = 300;
    const std::vector<float> a = random_vec(tall * k, 10);
    const std::vector<float> b = random_vec(k * n, 11);
    std::vector<float> c_tall(static_cast<size_t>(tall * n));
    kernels::gemm(a.data(), b.data(), c_tall.data(), tall, n, k, false, false);
    bool ok = true;
    for (int64_t m : {int64_t{1}, int64_t{7}, tile.short_m}) {
      std::vector<float> c(static_cast<size_t>(m * n));
      kernels::gemm(a.data(), b.data(), c.data(), m, n, k, false, false);
      ok = ok && std::memcmp(c.data(), c_tall.data(),
                             sizeof(float) * c.size()) == 0;
    }
    check(ok, "short-M GEMM rows equal tall-GEMM rows");
  }

  {  // fused bias+GeLU vs composed
    Rng rng(5);
    Tensor x = Tensor::randn(Shape{{33, 48}}, rng);
    Tensor bias = Tensor::randn(Shape{{48}}, rng, 0.5f);
    Tensor fused = ops::bias_gelu(x, bias);
    Tensor composed = ops::gelu(ops::add_bias(x, bias));
    check(fused.allclose(composed, 1e-5f, 1e-6f),
          "fused bias+GeLU matches composed");
  }

  {  // fused scale+softmax vs composed (causal)
    Rng rng(6);
    Tensor x = Tensor::randn(Shape{{4, 19, 19}}, rng);
    Tensor fused = ops::scaled_softmax(x, 0.31f, /*causal=*/true);
    Tensor composed = ops::softmax_lastdim(ops::scale(x, 0.31f), true);
    check(fused.allclose(composed, 1e-5f, 1e-6f),
          "fused scale+softmax matches composed");
  }

  {  // layout fast paths invert each other
    Rng rng(7);
    Tensor x = Tensor::randn(Shape{{12, 3, 32}}, rng);
    Tensor round = ops::bhsd_to_sbh(ops::sbh_to_bhsd(x, 4), 4);
    check(std::memcmp(round.data(), x.data(),
                      sizeof(float) * static_cast<size_t>(x.numel())) == 0,
          "sbh<->bhsd round trip bit-exact");
  }

  {  // dropout row kernel vs the coordinate walk; 1 vs 4 threads
    // Global [2, 6, 57, 57], heads [3, 6): odd rows, and enough
    // elements that 4 threads really split them.
    ops::IndexMap map;
    map.dims = {2, 3, 57, 57};
    map.strides = {6 * 57 * 57, 57 * 57, 57, 1};
    map.base = 3 * 57 * 57;
    Rng rng(8);
    Tensor x = Tensor::randn(Shape(map.dims), rng);
    const size_t n = static_cast<size_t>(x.numel());
    std::vector<float> y_ref(n), m_ref(n);
    dropout_prepr(x.data(), y_ref.data(), m_ref.data(), 0.1f, 99, map);
    auto same = [&](const float* a, const float* b) {
      return std::memcmp(a, b, sizeof(float) * n) == 0;
    };
    // The byte mask widened to the walk's float 0/1 mask.
    auto widened = [&](const Tensor& mask) {
      std::vector<float> w(n);
      for (size_t i = 0; i < n; ++i) w[i] = static_cast<float>(mask.u8()[i]);
      return w;
    };
    core::Env::set("MLS_KERNEL_THREADS", "1");
    const ops::DropoutOut d1 = ops::dropout_stateless(x, 0.1f, 99, map);
    const Tensor g1 = ops::dropout_grad(x, d1.mask, 0.1f);
    core::Env::set("MLS_KERNEL_THREADS", "4");
    const ops::DropoutOut d4 = ops::dropout_stateless(x, 0.1f, 99, map);
    const Tensor g4 = ops::dropout_grad(x, d4.mask, 0.1f);
    core::Env::clear("MLS_KERNEL_THREADS");
    check(same(d1.y.data(), y_ref.data()) &&
              same(widened(d1.mask).data(), m_ref.data()),
          "dropout kernel matches the coordinate-walk oracle");
    check(same(d1.y.data(), d4.y.data()) &&
              std::memcmp(d1.mask.u8(), d4.mask.u8(), n) == 0 &&
              same(g1.data(), g4.data()),
          "1-vs-4-thread dropout bit-identical");
  }

  {  // thread-scaling gate (>= 4 cores only)
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores >= 4) {
      const int64_t n = 512;
      const std::vector<float> a = random_vec(n * n, 8);
      const std::vector<float> b = random_vec(n * n, 9);
      std::vector<float> c(static_cast<size_t>(n * n));
      auto time_at = [&](const char* nt) {
        core::Env::set("MLS_KERNEL_THREADS", nt);
        const double t = min_time(
            [&] {
              kernels::gemm(a.data(), b.data(), c.data(), n, n, n, false,
                            false);
            },
            5);
        core::Env::clear("MLS_KERNEL_THREADS");
        return t;
      };
      const double t1 = time_at("1");
      const double t4 = time_at("4");
      const double scaling = t1 / t4;
      std::printf("smoke: 4-thread scaling %.2fx (gate: >= 1.5x)\n", scaling);
      check(scaling >= 1.5, "4-thread GEMM >= 1.5x single-thread");
    } else {
      std::printf("smoke: 4-thread scaling gate skipped (%u core%s)\n", cores,
                  cores == 1 ? "" : "s");
    }
  }

  std::printf("smoke: %s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------ --json
// Hand-rolled timings (google-benchmark's own JSON reports per-bench
// wall time; here we want paired before/after GFLOP/s and thread
// scaling in one document).
int run_json(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", path.c_str());
    return 1;
  }

  std::fprintf(f, "{\n  \"gemm\": [\n");
  double prepr512 = 0, blocked512 = 0;
  for (int64_t n : {int64_t{128}, int64_t{256}, int64_t{512}}) {
    const std::vector<float> a = random_vec(n * n, 10 + n);
    const std::vector<float> b = random_vec(n * n, 20 + n);
    std::vector<float> c(static_cast<size_t>(n * n), 0.f);
    const double flops = 2.0 * n * n * n;
    const int reps = n <= 256 ? 7 : 5;
    // The pre-PR kernel is beta!=0 (accumulates into C); zero first so
    // both do the same logical work.
    const double t_pre = min_time(
        [&] {
          std::memset(c.data(), 0, sizeof(float) * c.size());
          gemm_prepr(a.data(), b.data(), c.data(), n, n, n, false, false);
        },
        reps);
    const double t_ref = min_time(
        [&] {
          kernels::gemm_ref(a.data(), b.data(), c.data(), n, n, n, false,
                            false);
        },
        reps);
    // Single-threaded, like both scalar baselines; thread_scaling below
    // has the threaded rows.
    core::Env::set("MLS_KERNEL_THREADS", "1");
    const double t_blk = min_time(
        [&] {
          kernels::gemm(a.data(), b.data(), c.data(), n, n, n, false, false);
        },
        reps);
    core::Env::clear("MLS_KERNEL_THREADS");
    const double g_pre = flops / t_pre / 1e9;
    const double g_ref = flops / t_ref / 1e9;
    const double g_blk = flops / t_blk / 1e9;
    if (n == 512) {
      prepr512 = g_pre;
      blocked512 = g_blk;
    }
    std::fprintf(f,
                 "    {\"n\": %lld, \"prepr_scalar_gflops\": %.2f, "
                 "\"gemm_ref_gflops\": %.2f, \"blocked_gflops\": %.2f, "
                 "\"speedup_vs_prepr\": %.2f}%s\n",
                 static_cast<long long>(n), g_pre, g_ref, g_blk, g_blk / g_pre,
                 n == 512 ? "" : ",");
    std::printf(
        "gemm n=%lld: prepr %.2f | ref %.2f | blocked %.2f GFLOP/s "
        "(%.1fx vs prepr)\n",
        static_cast<long long>(n), g_pre, g_ref, g_blk, g_blk / g_pre);
  }
  std::fprintf(f, "  ],\n  \"host_cores\": %u,\n  \"thread_scaling\": [\n",
               std::thread::hardware_concurrency());
  {
    const int64_t n = 512;
    const std::vector<float> a = random_vec(n * n, 30);
    const std::vector<float> b = random_vec(n * n, 31);
    std::vector<float> c(static_cast<size_t>(n * n));
    const double flops = 2.0 * n * n * n;
    for (int nt : {1, 2, 4}) {
      core::Env::set("MLS_KERNEL_THREADS", std::to_string(nt));
      const double t = min_time(
          [&] {
            kernels::gemm(a.data(), b.data(), c.data(), n, n, n, false, false);
          },
          5);
      core::Env::clear("MLS_KERNEL_THREADS");
      std::fprintf(f, "    {\"threads\": %d, \"gflops\": %.2f}%s\n", nt,
                   flops / t / 1e9, nt == 4 ? "" : ",");
      std::printf("gemm n=512 threads=%d: %.2f GFLOP/s\n", nt,
                  flops / t / 1e9);
    }
  }
  // Short-M (decode) GEMMs at serve_paged_t2's per-rank weight shapes
  // (h = 512, t = 2): m is the decode batch, and these read B in place.
  // tall_gflops is the same k x n at m = 256, which packs B: the
  // throughput those rows would get inside a tall GEMM.
  std::fprintf(f, "  ],\n  \"gemm_short_m\": [\n");
  {
    struct WeightShape {
      const char* op;
      int64_t k, n;
    };
    const WeightShape shapes[] = {
        {"qkv", 512, 768}, {"proj", 256, 512}, {"fc1", 512, 1024},
        {"fc2", 1024, 512}};
    const int64_t tall = 256;
    core::Env::set("MLS_KERNEL_THREADS", "1");
    bool first = true;
    for (const WeightShape& w : shapes) {
      const std::vector<float> a = random_vec(tall * w.k, 40 + w.k);
      const std::vector<float> b = random_vec(w.k * w.n, 50 + w.n);
      std::vector<float> c(static_cast<size_t>(tall * w.n));
      const double t_tall = min_time(
          [&] {
            kernels::gemm(a.data(), b.data(), c.data(), tall, w.n, w.k, false,
                          false);
          },
          7);
      const double g_tall = 2.0 * tall * w.n * w.k / t_tall / 1e9;
      for (int64_t m : {int64_t{1}, int64_t{14}, int64_t{32}}) {
        const double t = min_time(
            [&] {
              kernels::gemm(a.data(), b.data(), c.data(), m, w.n, w.k, false,
                            false);
            },
            31);
        const double g = 2.0 * m * w.n * w.k / t / 1e9;
        std::fprintf(f,
                     "%s    {\"op\": \"%s\", \"m\": %lld, \"k\": %lld, "
                     "\"n\": %lld, \"threads\": 1, \"us\": %.1f, "
                     "\"gflops\": %.2f, \"tall_gflops\": %.2f}",
                     first ? "" : ",\n", w.op, static_cast<long long>(m),
                     static_cast<long long>(w.k), static_cast<long long>(w.n),
                     t * 1e6, g, g_tall);
        first = false;
        std::printf("gemm short-m %s m=%lld: %.1f us, %.2f GFLOP/s (m=%lld: "
                    "%.2f)\n",
                    w.op, static_cast<long long>(m), t * 1e6, g,
                    static_cast<long long>(tall), g_tall);
      }
    }
    std::fprintf(f, "\n");
    core::Env::clear("MLS_KERNEL_THREADS");
  }
  // Per-thread-count curves for bmm and the fused epilogues too: the
  // serve/overhead benches lean on exactly these shapes (QK^T bmm, MLP
  // bias+GeLU, attention softmax), so GEMM-only scaling would hide a
  // pool regression in the ops they actually run. Fused-op "gflops"
  // use nominal per-element op counts (bias_gelu 15, softmax 5) — the
  // absolute number is a convention; the curve is the datum.
  std::fprintf(f, "  ],\n  \"thread_scaling_ops\": [\n");
  {
    struct OpTime {
      const char* name;
      double flops;
      std::function<void()> fn;
    };
    const int64_t nb = 16, s = 128, d = 64;
    const std::vector<float> qa = random_vec(nb * s * d, 32);
    const std::vector<float> kb = random_vec(nb * s * d, 33);
    std::vector<float> sc(static_cast<size_t>(nb * s * s));
    const int64_t rows = 1024, h = 1024;
    const std::vector<float> gx = random_vec(rows * h, 34);
    const std::vector<float> gb = random_vec(h, 35);
    std::vector<float> gy(static_cast<size_t>(rows * h));
    const int64_t sb = 16, ss = 256;
    const std::vector<float> sx = random_vec(sb * ss * ss, 36);
    std::vector<float> sy(static_cast<size_t>(sb * ss * ss));
    const OpTime ops_to_time[] = {
        {"bmm_qkt", 2.0 * nb * s * s * d,
         [&] {
           kernels::bmm(qa.data(), kb.data(), sc.data(), nb, s, s, d, false,
                        true);
         }},
        {"bias_gelu", 15.0 * rows * h,
         [&] { kernels::bias_gelu(gx.data(), gb.data(), gy.data(), rows, h); }},
        {"scaled_softmax", 5.0 * sb * ss * ss,
         [&] {
           kernels::scaled_softmax(sx.data(), sy.data(), sb * ss, ss, ss,
                                   0.125f, true);
         }},
    };
    for (size_t oi = 0; oi < std::size(ops_to_time); ++oi) {
      const OpTime& op = ops_to_time[oi];
      for (int nt : {1, 2, 4}) {
        core::Env::set("MLS_KERNEL_THREADS", std::to_string(nt));
        const double t = min_time(op.fn, 5);
        core::Env::clear("MLS_KERNEL_THREADS");
        const bool last = oi + 1 == std::size(ops_to_time) && nt == 4;
        std::fprintf(f,
                     "    {\"op\": \"%s\", \"threads\": %d, \"gflops\": "
                     "%.2f}%s\n",
                     op.name, nt, op.flops / t / 1e9, last ? "" : ",");
        std::printf("%s threads=%d: %.2f GFLOP/s\n", op.name, nt,
                    op.flops / t / 1e9);
      }
    }
  }
  std::fprintf(f, "  ],\n  \"fused\": [\n");
  {
    Rng rng(40);
    Tensor x = Tensor::randn(Shape{{512, 1024}}, rng);
    Tensor bias = Tensor::randn(Shape{{1024}}, rng, 0.5f);
    const double t_f = min_time([&] { ops::bias_gelu(x, bias); }, 7);
    const double t_c = min_time([&] { ops::gelu(ops::add_bias(x, bias)); }, 7);
    std::fprintf(f,
                 "    {\"op\": \"bias_gelu\", \"fused_ms\": %.3f, "
                 "\"composed_ms\": %.3f, \"speedup\": %.2f},\n",
                 t_f * 1e3, t_c * 1e3, t_c / t_f);
    std::printf("bias_gelu: fused %.3f ms vs composed %.3f ms (%.2fx)\n",
                t_f * 1e3, t_c * 1e3, t_c / t_f);
  }
  {
    Rng rng(41);
    Tensor x = Tensor::randn(Shape{{16, 256, 256}}, rng);
    const double t_f =
        min_time([&] { ops::scaled_softmax(x, 0.125f, true); }, 7);
    const double t_c = min_time(
        [&] { ops::softmax_lastdim(ops::scale(x, 0.125f), true); }, 7);
    std::fprintf(f,
                 "    {\"op\": \"scaled_softmax\", \"fused_ms\": %.3f, "
                 "\"composed_ms\": %.3f, \"speedup\": %.2f}\n",
                 t_f * 1e3, t_c * 1e3, t_c / t_f);
    std::printf("scaled_softmax: fused %.3f ms vs composed %.3f ms (%.2fx)\n",
                t_f * 1e3, t_c * 1e3, t_c / t_f);
  }
  // Stateless dropout at train_sp_selective's attention-probs shape:
  // the row kernel (and its backward) per thread count, beside the
  // pre-PR coordinate walk, which is single-threaded. bytes_per_elem is
  // the traffic each op moves: x 4 + y 4 + mask 1 forward (the no-grad
  // forward writes no mask: 8), dy 4 + mask 1 + dx 4 backward; both were
  // 12 while the mask was stored as floats.
  std::fprintf(f, "  ],\n  \"dropout\": [\n");
  {
    const ops::IndexMap map = attention_probs_map();
    Rng rng(42);
    Tensor x = Tensor::randn(Shape(map.dims), rng);
    std::vector<float> y(static_cast<size_t>(x.numel()));
    std::vector<float> mask(y.size());
    const double t_walk = min_time(
        [&] {
          dropout_prepr(x.data(), y.data(), mask.data(), 0.1f, 7, map);
        },
        7);
    const Tensor saved = ops::dropout_stateless(x, 0.1f, 7, map).mask;
    for (int nt : {1, 2, 4}) {
      core::Env::set("MLS_KERNEL_THREADS", std::to_string(nt));
      const double t_fwd =
          min_time([&] { ops::dropout_stateless(x, 0.1f, 7, map); }, 15);
      const double t_nomask = min_time(
          [&] { ops::dropout_stateless(x, 0.1f, 7, map, /*with_mask=*/false); },
          15);
      const double t_bwd =
          min_time([&] { ops::dropout_grad(x, saved, 0.1f); }, 15);
      core::Env::clear("MLS_KERNEL_THREADS");
      std::fprintf(f,
                   "    {\"op\": \"dropout_stateless\", \"shape\": "
                   "\"4x512x512\", \"threads\": %d, \"bytes_per_elem\": 9, "
                   "\"ms\": %.3f, \"coord_walk_ms\": %.3f},\n",
                   nt, t_fwd * 1e3, t_walk * 1e3);
      std::fprintf(f,
                   "    {\"op\": \"dropout_stateless_no_mask\", \"shape\": "
                   "\"4x512x512\", \"threads\": %d, \"bytes_per_elem\": 8, "
                   "\"ms\": %.3f},\n",
                   nt, t_nomask * 1e3);
      std::fprintf(f,
                   "    {\"op\": \"dropout_grad\", \"shape\": "
                   "\"4x512x512\", \"threads\": %d, \"bytes_per_elem\": 9, "
                   "\"ms\": %.3f}%s\n",
                   nt, t_bwd * 1e3, nt == 4 ? "" : ",");
      std::printf(
          "dropout 4x512x512 threads=%d: %.3f ms (no mask %.3f ms, "
          "coordinate walk %.3f ms), grad %.3f ms\n",
          nt, t_fwd * 1e3, t_nomask * 1e3, t_walk * 1e3, t_bwd * 1e3);
    }
  }
  std::fprintf(f, "  ],\n  \"speedup_n512_vs_prepr\": %.2f\n}\n",
               blocked512 / prepr512);
  std::fclose(f);
  std::printf("wrote %s (n=512 speedup vs pre-PR scalar: %.1fx)\n",
              path.c_str(), blocked512 / prepr512);
  return 0;
}

// --------------------------------------- google-benchmark registrations

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{{n, n}}, rng);
  Tensor b = Tensor::randn(Shape{{n, n}}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n * n * n);
}

// The seed scalar GEMM, for A/B comparison against BM_Matmul.
void BM_MatmulPrePR(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<float> a = random_vec(n * n, 1);
  const std::vector<float> b = random_vec(n * n, 2);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    std::memset(c.data(), 0, sizeof(float) * c.size());
    gemm_prepr(a.data(), b.data(), c.data(), n, n, n, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n * n * n);
}

void BM_BmmAttentionScores(benchmark::State& state) {
  // [heads, s, d] @ [heads, s, d]^T — the QK^T shape.
  const int64_t s = state.range(0);
  Rng rng(2);
  Tensor q = Tensor::randn(Shape{{8, s, 32}}, rng);
  Tensor k = Tensor::randn(Shape{{8, s, 32}}, rng);
  for (auto _ : state) {
    Tensor scores = ops::bmm(q, k, false, true);
    benchmark::DoNotOptimize(scores.data());
  }
}

void BM_SoftmaxCausal(benchmark::State& state) {
  const int64_t s = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{{8, s, s}}, rng);
  for (auto _ : state) {
    Tensor y = ops::softmax_lastdim(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8 * s * s);
}

void BM_ScaledSoftmaxFused(benchmark::State& state) {
  const int64_t s = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{{8, s, s}}, rng);
  for (auto _ : state) {
    Tensor y = ops::scaled_softmax(x, 0.125f, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8 * s * s);
}

void BM_ScaledSoftmaxComposed(benchmark::State& state) {
  const int64_t s = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{{8, s, s}}, rng);
  for (auto _ : state) {
    Tensor y = ops::softmax_lastdim(ops::scale(x, 0.125f), true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8 * s * s);
}

void BM_BiasGeluFused(benchmark::State& state) {
  const int64_t h = state.range(0);
  Rng rng(4);
  Tensor x = Tensor::randn(Shape{{256, h}}, rng);
  Tensor bias = Tensor::randn(Shape{{h}}, rng, 0.5f);
  for (auto _ : state) {
    Tensor y = ops::bias_gelu(x, bias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256 * h);
}

void BM_BiasGeluComposed(benchmark::State& state) {
  const int64_t h = state.range(0);
  Rng rng(4);
  Tensor x = Tensor::randn(Shape{{256, h}}, rng);
  Tensor bias = Tensor::randn(Shape{{h}}, rng, 0.5f);
  for (auto _ : state) {
    Tensor y = ops::gelu(ops::add_bias(x, bias));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256 * h);
}

void BM_SbhToBhsd(benchmark::State& state) {
  const int64_t s = state.range(0);
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{{s, 4, 512}}, rng);
  for (auto _ : state) {
    Tensor y = ops::sbh_to_bhsd(x, 8);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * s * 4 * 512);
}

void BM_SbhToBhsdGenericPermute(benchmark::State& state) {
  const int64_t s = state.range(0);
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{{s, 4, 512}}, rng);
  for (auto _ : state) {
    Tensor y = ops::permute(x.reshape(Shape{{s, 4, 8, 64}}), {1, 2, 0, 3})
                   .reshape(Shape{{4 * 8, s, 64}});
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * s * 4 * 512);
}

void BM_LayerNorm(benchmark::State& state) {
  const int64_t h = state.range(0);
  Rng rng(4);
  Tensor x = Tensor::randn(Shape{{256, h}}, rng);
  Tensor gamma = Tensor::full(Shape{{h}}, 1.f);
  Tensor beta = Tensor::zeros(Shape{{h}});
  for (auto _ : state) {
    auto out = ops::layernorm(x, gamma, beta);
    benchmark::DoNotOptimize(out.y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256 * h);
}

void BM_StatelessDropout(benchmark::State& state) {
  const ops::IndexMap map = attention_probs_map();
  Rng rng(5);
  Tensor x = Tensor::randn(Shape(map.dims), rng);
  for (auto _ : state) {
    auto out = ops::dropout_stateless(x, 0.1f, 42, map);
    benchmark::DoNotOptimize(out.y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          x.numel());
}

void BM_Gelu(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor x = Tensor::randn(Shape{{n}}, rng);
  for (auto _ : state) {
    Tensor y = ops::gelu(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}

}  // namespace

BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_MatmulPrePR)->Arg(128)->Arg(512);
BENCHMARK(BM_BmmAttentionScores)->Arg(32)->Arg(128);
BENCHMARK(BM_SoftmaxCausal)->Arg(64)->Arg(256);
BENCHMARK(BM_ScaledSoftmaxFused)->Arg(256);
BENCHMARK(BM_ScaledSoftmaxComposed)->Arg(256);
BENCHMARK(BM_BiasGeluFused)->Arg(512)->Arg(4096);
BENCHMARK(BM_BiasGeluComposed)->Arg(512)->Arg(4096);
BENCHMARK(BM_SbhToBhsd)->Arg(256);
BENCHMARK(BM_SbhToBhsdGenericPermute)->Arg(256);
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(512);
BENCHMARK(BM_StatelessDropout);
BENCHMARK(BM_Gelu)->Arg(1 << 12)->Arg(1 << 16);

int main(int argc, char** argv) {
  // Peel off our custom modes before google-benchmark sees the args.
  std::vector<char*> passthrough = {argv[0]};
  bool smoke = false, json = false;
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (smoke) return run_smoke();
  if (json) return run_json(json_path);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
