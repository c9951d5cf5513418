#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "core/env.h"

namespace mls::kernels {

namespace {

// Register tile: MR rows of C by NR columns, NR two vectors of the
// build's widest float vector (32 on AVX-512, 16 on AVX2, 8 on the SSE2
// portable build). That is 12 vector accumulators; with the two B
// vectors and the A broadcast it fits the 16 registers of AVX2/SSE2 and
// gives AVX-512 12 independent FMA chains per k step, enough to cover
// the FMA latency. Vec is a GCC vector-extension type, so one source
// serves every ISA.
#if defined(__AVX512F__)
constexpr int64_t kVecLanes = 16;
#elif defined(__AVX__)
constexpr int64_t kVecLanes = 8;
#else
constexpr int64_t kVecLanes = 4;
#endif
using Vec = float __attribute__((vector_size(kVecLanes * sizeof(float))));
constexpr int64_t MR = 6;
constexpr int64_t NR = 2 * kVecLanes;
// Cache blocking: the packed A block (MC x KC floats, ~96 KiB) targets
// L2; the packed B panel (KC x NC, ~512 KiB) targets L3/L2. All are
// multiples of the register tile.
constexpr int64_t MC = 96;
constexpr int64_t KC = 256;
constexpr int64_t NC = 512;

// Below this many multiply-adds a GEMM is not worth fanning out to the
// worker pool (even a spin wake would dominate).
constexpr int64_t kParallelGrain = int64_t{1} << 18;
// Short-M crossover: a GEMM with at most this many rows (and op(B) = B)
// reads full B panels in place instead of packing them. A packed panel
// pays for itself only when many row tiles reuse it; a decode step's
// m = batch rows (<= 32) uses each panel 1-6 times. Measured on one
// AVX-512 core over serve_paged_t2's four per-rank weight GEMMs
// (k x n = 512x768, 256x512, 512x1024, 1024x512), in-place vs packed
// time, two runs: -13% at m = 14, -1 to -3% at m = 32, +1 to +3% at
// m = 48, +9% at m = 64.
constexpr int64_t kShortM = 32;
// Elementwise grain for the fused epilogues (their per-element cost is
// tanh/exp-heavy, so the bar is lower than the GEMM's).
constexpr int64_t kElemGrain = int64_t{1} << 14;
// Matches the MLS_KERNEL_THREADS clamp.
constexpr int kMaxSlots = 64;

int hardware_cores() {
  static const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return n;
}

// ------------------------------------------------------- rank binding
thread_local RankBinding t_binding;

// [lo, lo+n): the core slice MLS_KERNEL_PIN carves out for a rank.
struct CoreSlice {
  int lo = 0;
  int n = 1;
};

CoreSlice rank_slice(RankBinding b) {
  const int cores = hardware_cores();
  const int world = std::max(1, b.world);
  const int rank = std::clamp(b.rank, 0, world - 1);
  if (world >= cores) return {rank % cores, 1};
  const int lo = rank * cores / world;
  const int hi = std::max(lo + 1, (rank + 1) * cores / world);
  return {lo, hi - lo};
}

// Pins the calling thread to its rank's slice (which == -1) or to one
// core of it (which >= 0, wrapped). Cached so repeated applications of
// an unchanged binding cost one comparison, no syscall.
void apply_pin(RankBinding b, int which) {
  struct Applied {
    int rank = -1, world = -1, which = -2;
  };
  thread_local Applied last;
  if (last.rank == b.rank && last.world == b.world && last.which == which)
    return;
  last = {b.rank, b.world, which};
#ifdef __linux__
  const CoreSlice s = rank_slice(b);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (which >= 0) {
    CPU_SET(static_cast<unsigned>(s.lo + which % s.n), &set);
  } else {
    for (int i = 0; i < s.n; ++i)
      CPU_SET(static_cast<unsigned>(s.lo + i), &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)b;
  (void)which;
#endif
}

// ------------------------------------------------------------- packing
// Per-thread packing scratch: the submitting thread and every
// persistent worker own their panels outright, reused across calls —
// packing never contends and never reallocates in steady state.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

// Packs one NR-wide column panel of B[0:kc, jr:jr+nr] (logical, after
// trans) into panel[kk*NR + j]. Columns beyond nr are zero-filled so
// the micro-kernel never branches on the n edge.
void pack_b_panel(const float* b, float* panel, int64_t kc, int64_t nr,
                  int64_t rs_b, int64_t cs_b) {
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* src = b + kk * rs_b;
    float* dst = panel + kk * NR;
    if (cs_b == 1) {
      for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) dst[j] = src[j * cs_b];
    }
    for (int64_t j = nr; j < NR; ++j) dst[j] = 0.0f;
  }
}

// Packs B[pc:pc+kc, jc:jc+nc] (logical, after trans) into NR-wide
// column panels: bp[(jr/NR) * kc*NR + kk*NR + j].
void pack_b(const float* b, float* bp, int64_t kc, int64_t nc, int64_t rs_b,
            int64_t cs_b) {
  for (int64_t jr = 0; jr < nc; jr += NR) {
    pack_b_panel(b + jr * cs_b, bp + (jr / NR) * kc * NR, kc,
                 std::min(NR, nc - jr), rs_b, cs_b);
  }
}

// Packs A[ic:ic+mc, pc:pc+kc] (logical, after trans) into MR-tall row
// panels: ap[(ir/MR) * kc*MR + kk*MR + i], zero-padding the m edge.
void pack_a(const float* a, float* ap, int64_t mc, int64_t kc, int64_t rs_a,
            int64_t cs_a) {
  for (int64_t ir = 0; ir < mc; ir += MR) {
    const int64_t mr = std::min(MR, mc - ir);
    float* panel = ap + (ir / MR) * kc * MR;
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a + ir * rs_a + kk * cs_a;
      float* dst = panel + kk * MR;
      for (int64_t i = 0; i < mr; ++i) dst[i] = src[i * rs_a];
      for (int64_t i = mr; i < MR; ++i) dst[i] = 0.0f;
    }
  }
}

// --------------------------------------------------------- micro-kernel
inline Vec load_vec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_vec(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

// C[MR x NR] tile from a packed A panel and an NR-wide B panel whose
// row kk starts at b + kk * ldb: a packed panel (ldb = NR) or, for
// short-M GEMMs, B's own rows read in place (ldb = B's row stride).
// Each accumulator starts at +0 and takes one FMA per k step in
// ascending k, so an element's bits do not depend on which B path fed
// it. Zero-padded A rows mean every tile runs the full MR x NR body;
// full tiles write C straight from the registers, edge tiles through a
// spilled copy that respects the true mr x nr edge.
void micro_kernel(const float* ap, const float* b, int64_t ldb, float* c,
                  int64_t ldc, int64_t kc, int64_t mr, int64_t nr,
                  bool accumulate) {
  Vec acc[MR][2] = {};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* a = ap + kk * MR;
    const Vec b0 = load_vec(b + kk * ldb);
    const Vec b1 = load_vec(b + kk * ldb + kVecLanes);
#pragma GCC unroll 6
    for (int64_t i = 0; i < MR; ++i) {
      acc[i][0] += a[i] * b0;
      acc[i][1] += a[i] * b1;
    }
  }
  if (mr == MR && nr == NR) {
#pragma GCC unroll 6
    for (int64_t i = 0; i < MR; ++i) {
      float* crow = c + i * ldc;
      if (accumulate) {
        acc[i][0] += load_vec(crow);
        acc[i][1] += load_vec(crow + kVecLanes);
      }
      store_vec(crow, acc[i][0]);
      store_vec(crow + kVecLanes, acc[i][1]);
    }
    return;
  }
  // All MR rows spill with constant indices, so acc never needs a
  // stack home of its own (a runtime-indexed acc[i] would give it one,
  // zeroed on every call).
  float tile[MR][NR];
#pragma GCC unroll 6
  for (int64_t i = 0; i < MR; ++i) {
    store_vec(tile[i], acc[i][0]);
    store_vec(tile[i] + kVecLanes, acc[i][1]);
  }
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    if (accumulate) {
      for (int64_t j = 0; j < nr; ++j) crow[j] += tile[i][j];
    } else {
      for (int64_t j = 0; j < nr; ++j) crow[j] = tile[i][j];
    }
  }
}

// Micro-kernels over one packed A block (mc rows) and nc columns of one
// kc-panel of B. bp holds the block's NR-wide packed panels. With
// b_in_place (B's rows, row stride rs_b) set, full panels are read from
// B instead and only the n-edge panel needs to be in bp.
void block_kernel(const float* ap, int64_t mc, const float* bp,
                  const float* b_in_place, int64_t rs_b, float* c,
                  int64_t ldc, int64_t kc, int64_t nc, bool accumulate) {
  for (int64_t jr = 0; jr < nc; jr += NR) {
    const int64_t nr = std::min(NR, nc - jr);
    const bool direct = b_in_place != nullptr && nr == NR;
    const float* panel = direct ? b_in_place + jr : bp + (jr / NR) * kc * NR;
    const int64_t ldp = direct ? rs_b : NR;
    for (int64_t ir = 0; ir < mc; ir += MR) {
      micro_kernel(ap + (ir / MR) * kc * MR, panel, ldp, c + ir * ldc + jr,
                   ldc, kc, std::min(MR, mc - ir), nr, accumulate);
    }
  }
}

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

int threads() {
  const int64_t t = core::Env::integer("MLS_KERNEL_THREADS", 0);
  if (t > 0) return static_cast<int>(std::min<int64_t>(t, kMaxSlots));
  const int world = std::max(1, t_binding.world);
  return std::clamp(hardware_cores() / world, 1, kMaxSlots);
}

bool use_reference() { return core::Env::flag("MLS_KERNEL_REF", false); }

bool pin_enabled() { return core::Env::flag("MLS_KERNEL_PIN", false); }

int spin_us() {
  const int64_t def = hardware_cores() > 1 ? 100 : 0;
  const int64_t v = core::Env::integer("MLS_KERNEL_SPIN_US", def);
  return static_cast<int>(std::clamp<int64_t>(v, 0, 1000000));
}

void bind_rank(int rank, int world) {
  t_binding = {rank, std::max(1, world)};
  if (pin_enabled()) apply_pin(t_binding, /*which=*/-1);
}

RankBinding rank_binding() { return t_binding; }

BindGuard::BindGuard(RankBinding b) : prev_(t_binding) {
  t_binding = {b.rank, std::max(1, b.world)};
  if (pin_enabled()) apply_pin(t_binding, /*which=*/-1);
}

BindGuard::~BindGuard() { t_binding = prev_; }

void gemm_blocked(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, bool trans_a, bool trans_b,
                  int64_t lda, int64_t ldb, int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    for (int64_t i = 0; i < m; ++i)
      std::memset(c + i * ldc, 0, sizeof(float) * static_cast<size_t>(n));
    return;
  }
  // Row/column strides of the *logical* [m,k] and [k,n] operands.
  const int64_t rs_a = trans_a ? 1 : lda;
  const int64_t cs_a = trans_a ? lda : 1;
  const int64_t rs_b = trans_b ? 1 : ldb;
  const int64_t cs_b = trans_b ? ldb : 1;

  tl_pack_a.resize(static_cast<size_t>(MC * KC));
  tl_pack_b.resize(static_cast<size_t>(KC * NC));
  float* ap = tl_pack_a.data();
  float* bp = tl_pack_b.data();
  const bool in_place = m <= kShortM && cs_b == 1;

  for (int64_t jc = 0; jc < n; jc += NC) {
    const int64_t nc = std::min(NC, n - jc);
    const int64_t n_edge = nc - nc % NR;  // first column of a partial panel
    for (int64_t pc = 0; pc < k; pc += KC) {
      const int64_t kc = std::min(KC, k - pc);
      // beta=0: the first k-panel writes C, later panels accumulate.
      const bool accumulate = pc > 0;
      const float* bblock = b + pc * rs_b + jc * cs_b;
      if (!in_place) {
        pack_b(bblock, bp, kc, nc, rs_b, cs_b);
      } else if (n_edge < nc) {
        pack_b_panel(bblock + n_edge, bp + (n_edge / NR) * kc * NR, kc,
                     nc - n_edge, rs_b, cs_b);
      }
      for (int64_t ic = 0; ic < m; ic += MC) {
        const int64_t mc = std::min(MC, m - ic);
        pack_a(a + ic * rs_a + pc * cs_a, ap, mc, kc, rs_a, cs_a);
        block_kernel(ap, mc, bp, in_place ? bblock : nullptr, rs_b,
                     c + ic * ldc + jc, ldc, kc, nc, accumulate);
      }
    }
  }
}

GemmTile gemm_tile() { return {MR, NR, kShortM}; }

void gemm_ref(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, bool trans_a, bool trans_b) {
  auto A = [&](int64_t i, int64_t kk) {
    return trans_a ? a[kk * m + i] : a[i * k + kk];
  };
  if (!trans_b) {
    // i-k-j saxpy order; C row zeroed up front (beta = 0). The zero
    // operand is NOT skipped: a data-dependent branch here made kernel
    // timing depend on the values, skewing bench_table4/bench_overhead.
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      std::memset(crow, 0, sizeof(float) * static_cast<size_t>(n));
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = A(i, kk);
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    // B is [n, k]; dot rows of A with rows of B (double accumulator,
    // preserved from the seed kernel for A/B comparability).
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        double acc = 0.0;
        for (int64_t kk = 0; kk < k; ++kk) acc += A(i, kk) * brow[kk];
        crow[j] = static_cast<float>(acc);
      }
    }
  }
}

// ---------------------------------------------------------- worker pool
namespace {

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Spins with pause, yielding periodically so oversubscribed hosts (the
// 1-core CI container, nested rank x worker tests) still make progress.
template <typename Pred>
void spin_until(const Pred& pred) {
  int iter = 0;
  while (!pred()) {
    cpu_pause();
    if ((++iter & 0x3f) == 0) std::this_thread::yield();
  }
}

// Spin for roughly `budget_us`, checking pred; returns pred's value.
template <typename Pred>
bool spin_for(const Pred& pred, int budget_us) {
  if (budget_us <= 0) return pred();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(budget_us);
  int iter = 0;
  for (;;) {
    if (pred()) return true;
    cpu_pause();
    if ((++iter & 0x3f) == 0) {
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() >= deadline) return pred();
    }
  }
}

// Sense-reversing spin barrier for the cooperative GEMM's pack/compute
// phases. Participants are the job's active slots only; phases are
// microseconds long, so waiting spins (with yields) and never parks.
class SpinBarrier {
 public:
  void reset(int n) {
    n_ = n;
    count_.store(n, std::memory_order_relaxed);
    phase_.store(0, std::memory_order_relaxed);
  }

  void wait() {
    const uint64_t phase = phase_.load(std::memory_order_acquire);
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      count_.store(n_, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
    } else {
      spin_until([&] {
        return phase_.load(std::memory_order_acquire) != phase;
      });
    }
  }

 private:
  std::atomic<uint64_t> phase_{0};
  std::atomic<int> count_{0};
  int n_ = 0;
};

// Marks pool worker threads so a re-entrant run() (which would
// deadlock) degrades to inline execution instead.
thread_local bool t_in_pool_worker = false;

// A persistent per-caller-thread worker pool. Each thread that issues
// parallel kernels (each simulated rank) owns
// its workers outright: no cross-rank queue contention, and the pool is
// torn down by the thread_local destructor when the owning thread exits
// (including poisoned-world unwinds).
//
// Dispatch protocol: the owner publishes a job by bumping seq_ (one
// release-ordered increment); workers spin on seq_ for spin_us, then
// park on a condition variable. Every worker consumes every job in
// strict sequence (seq_ can only be one ahead of a worker's last
// consumed job, because the owner waits for all workers before
// publishing the next one) — that is what makes the unsynchronized job
// fields race-free: they are stable from the seq_ publish until the
// last done_ increment. Workers whose slot index is beyond the job's
// nslots just acknowledge and go back to waiting.
class WorkerPool {
 public:
  static WorkerPool& local() {
    thread_local WorkerPool pool;
    return pool;
  }

  ~WorkerPool() {
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    for (auto& w : workers_) w.thread.join();
  }

  // Runs fn(0..nslots-1), the caller executing slot 0; returns when
  // every slot completed. fn may call barrier() as long as every one
  // of the nslots slots reaches the same barrier sequence (the
  // cooperative GEMM below does; fn must not throw between barriers).
  void run(int nslots, const std::function<void(int)>& fn) {
    nslots = std::min(nslots, kMaxSlots);
    if (nslots <= 1 || t_in_pool_worker) {
      fn(0);
      return;
    }
    spawn(nslots - 1);
    const int nworkers = static_cast<int>(workers_.size());
    job_fn_ = &fn;
    job_nslots_ = nslots;
    job_binding_ = t_binding;
    job_pin_ = pin_enabled();
    job_spin_us_ = spin_us();
    barrier_.reset(nslots);
    done_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    ++jobs_;
    seq_.fetch_add(1, std::memory_order_seq_cst);
    // Dekker pairing with the workers' parked_ increment: publish seq_
    // first, then look at parked_; a worker that missed the publish is
    // guaranteed visible here (and vice versa), so no lost wakeup.
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    try {
      fn(0);
    } catch (...) {
      // Kernels do not throw; this keeps a misbehaving barrier-free
      // job from abandoning the workers mid-protocol.
      if (!first_error_) first_error_ = std::current_exception();
    }
    // Wait for every worker (participant or not) to acknowledge.
    auto all_done = [&] {
      return done_.load(std::memory_order_acquire) == nworkers;
    };
    if (!spin_for(all_done, job_spin_us_)) {
      done_waiter_.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait(lock, all_done);
      }
      done_waiter_.fetch_sub(1, std::memory_order_relaxed);
    }
    job_fn_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }

  void barrier() { barrier_.wait(); }

  // Shared packed-B panel for the cooperative GEMM (packed once per
  // (jc, pc) cache block, read-only for all slots after the barrier).
  // Only the pool owner may call this (it resizes), and only outside
  // run() — workers receive the stable data pointer via the job.
  float* shared_b() {
    shared_b_.resize(static_cast<size_t>(KC * NC));
    return shared_b_.data();
  }

  PoolStats stats() const {
    return {static_cast<int>(workers_.size()), jobs_};
  }

 private:
  struct Worker {
    std::thread thread;
  };

  void spawn(int nworkers) {
    while (static_cast<int>(workers_.size()) < nworkers) {
      const int index = static_cast<int>(workers_.size());
      // A freshly spawned worker starts at the current seq_ so it can
      // never consume a job published before it existed (spawn happens
      // in run(), strictly before the new job is published).
      const uint64_t start_seq = seq_.load(std::memory_order_relaxed);
      workers_.push_back(
          {std::thread([this, index, start_seq] { worker_loop(index, start_seq); })});
    }
  }

  void worker_loop(int index, uint64_t last) {
    t_in_pool_worker = true;
    // Spin budget used while waiting for the next job; refreshed from
    // each consumed job's env read (worker-local — workers must not
    // share it, they update it concurrently).
    int spin_budget_us = 0;
    for (;;) {
      auto next_job = [&] {
        return stop_.load(std::memory_order_acquire) ||
               seq_.load(std::memory_order_acquire) != last;
      };
      if (!spin_for(next_job, spin_budget_us)) {
        // Park: Dekker pairing with run()'s parked_ check (see above).
        parked_.fetch_add(1, std::memory_order_seq_cst);
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, next_job);
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      ++last;  // == seq_: the owner publishes jobs one at a time
      spin_budget_us = job_spin_us_;
      if (job_pin_) apply_pin(job_binding_, /*which=*/1 + index);
      const int slot = 1 + index;
      if (slot < job_nslots_) {
        BindGuard bind(job_binding_);
        try {
          (*job_fn_)(slot);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      }
      done_.fetch_add(1, std::memory_order_seq_cst);
      if (done_waiter_.load(std::memory_order_seq_cst) > 0) {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_cv_.notify_all();
      }
    }
  }

  // Job fields: written by the owner before the seq_ publish, stable
  // until every worker's done_ increment (see class comment).
  const std::function<void(int)>* job_fn_ = nullptr;
  int job_nslots_ = 0;
  RankBinding job_binding_;
  bool job_pin_ = false;
  int job_spin_us_ = 0;
  std::exception_ptr first_error_;

  std::atomic<uint64_t> seq_{0};
  std::atomic<int> done_{0};
  std::atomic<int> parked_{0};
  std::atomic<int> done_waiter_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  SpinBarrier barrier_;
  std::vector<Worker> workers_;
  std::vector<float> shared_b_;
  uint64_t jobs_ = 0;
};

// ------------------------------------------------- cooperative GEMM
// One blocked GEMM executed by nslots cooperating slots, split over M:
// per (jc, pc) cache block the B panel is packed once — the jr
// sub-panels round-robined over the slots — and shared read-only after
// a barrier; each slot owns a contiguous MR-aligned row range and
// streams whole MC x nc blocks over the shared panel with its own
// packed A, so nothing is packed twice. Short matrices split over N
// instead (see gemm()). Either split writes disjoint C elements and
// never touches the k order, so results are bit-identical to the
// single-thread kernel at any slot count.
struct GemmShape {
  const float* a;
  const float* b;
  float* c;
  int64_t m, n, k;
  int64_t rs_a, cs_a, rs_b, cs_b, ldc;
};

void gemm_cooperative(const GemmShape& g, WorkerPool& pool, float* bp,
                      int slot, int nslots) {
  tl_pack_a.resize(static_cast<size_t>(MC * KC));
  float* ap = tl_pack_a.data();

  const int64_t m_chunk = ceil_div(ceil_div(g.m, nslots), MR) * MR;
  const int64_t i_begin = std::min<int64_t>(g.m, slot * m_chunk);
  const int64_t i_end = std::min<int64_t>(g.m, i_begin + m_chunk);

  for (int64_t jc = 0; jc < g.n; jc += NC) {
    const int64_t nc = std::min(NC, g.n - jc);
    for (int64_t pc = 0; pc < g.k; pc += KC) {
      const int64_t kc = std::min(KC, g.k - pc);
      const bool accumulate = pc > 0;
      // Phase 1: cooperative pack of the shared B panel (round-robin
      // over jr sub-panels so the work balances).
      const float* bblock = g.b + pc * g.rs_b + jc * g.cs_b;
      for (int64_t jr = slot * NR; jr < nc; jr += nslots * NR) {
        pack_b_panel(bblock + jr * g.cs_b, bp + (jr / NR) * kc * NR, kc,
                     std::min(NR, nc - jr), g.rs_b, g.cs_b);
      }
      pool.barrier();
      // Phase 2: micro-kernels over this slot's rows.
      for (int64_t ic = i_begin; ic < i_end; ic += MC) {
        const int64_t mc = std::min(MC, i_end - ic);
        pack_a(g.a + ic * g.rs_a + pc * g.cs_a, ap, mc, kc, g.rs_a, g.cs_a);
        block_kernel(ap, mc, bp, nullptr, 0, g.c + ic * g.ldc + jc, g.ldc, kc,
                     nc, accumulate);
      }
      // The next (pc, jc) block overwrites the shared panel; every
      // reader must be past it first.
      pool.barrier();
    }
  }
}

}  // namespace

PoolStats local_pool_stats() { return WorkerPool::local().stats(); }

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b) {
  if (use_reference()) {
    gemm_ref(a, b, c, m, n, k, trans_a, trans_b);
    return;
  }
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  int nt = threads();
  if (nt > 1 && m * n * k < kParallelGrain) nt = 1;
  if (nt == 1) {
    gemm_blocked(a, b, c, m, n, k, trans_a, trans_b, lda, ldb, n);
    return;
  }
  WorkerPool& pool = WorkerPool::local();
  if (m <= kShortM || m / MR < nt) {
    // N-split: too few row tiles to share a packed B panel, and a short
    // GEMM's cost is streaming B. Each slot runs the serial kernel on
    // its own NR-aligned column slab (reading B in place when short),
    // so B is read once overall and the slots never synchronize.
    const int64_t chunk = ceil_div(ceil_div(n, nt), NR) * NR;
    const int64_t cs_b = trans_b ? ldb : 1;
    pool.run(static_cast<int>(ceil_div(n, chunk)), [&](int slot) {
      const int64_t j0 = slot * chunk;
      gemm_blocked(a, b + j0 * cs_b, c + j0, m, std::min(chunk, n - j0), k,
                   trans_a, trans_b, lda, ldb, n);
    });
    return;
  }
  const GemmShape shape{a,
                        b,
                        c,
                        m,
                        n,
                        k,
                        trans_a ? 1 : lda,
                        trans_a ? lda : 1,
                        trans_b ? 1 : ldb,
                        trans_b ? ldb : 1,
                        n};
  // Size the shared panel on the owner, before publish: the pointer is
  // stable for the job's lifetime and workers never resize.
  float* bp = pool.shared_b();
  pool.run(nt, [&](int slot) { gemm_cooperative(shape, pool, bp, slot, nt); });
}

void bmm(const float* a, const float* b, float* c, int64_t nb, int64_t m,
         int64_t n, int64_t k, bool trans_a, bool trans_b) {
  const int64_t a_stride = m * k;
  const int64_t b_stride = k * n;
  const int64_t c_stride = m * n;
  if (use_reference()) {
    for (int64_t i = 0; i < nb; ++i) {
      gemm_ref(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n, k,
               trans_a, trans_b);
    }
    return;
  }
  if (nb == 1) {
    // A single batch still gets cooperative M/N parallelism via gemm().
    gemm(a, b, c, m, n, k, trans_a, trans_b);
    return;
  }
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  int nt = threads();
  if (nt > 1 && nb * m * n * k < kParallelGrain) nt = 1;
  if (nt == 1) {
    for (int64_t i = 0; i < nb; ++i) {
      gemm_blocked(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n,
                   k, trans_a, trans_b, lda, ldb, n);
    }
    return;
  }
  if (nb < nt) {
    // Too few batches to slab: run each batch cooperatively instead.
    for (int64_t i = 0; i < nb; ++i) {
      gemm(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n, k,
           trans_a, trans_b);
    }
    return;
  }
  // Batches are independent: contiguous batch slabs, one per slot, each
  // a serial blocked GEMM on the worker's own persistent pack buffers.
  const int64_t chunk = ceil_div(nb, nt);
  const int nslots = static_cast<int>(ceil_div(nb, chunk));
  WorkerPool::local().run(nslots, [&](int t) {
    const int64_t i0 = t * chunk;
    const int64_t i1 = std::min(nb, i0 + chunk);
    for (int64_t i = i0; i < i1; ++i) {
      gemm_blocked(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n,
                   k, trans_a, trans_b, lda, ldb, n);
    }
  });
}

// ------------------------------------------------------- fused epilogues
namespace {

// Branch-free float tanh and exp built from plain arithmetic and bit
// casts, so the epilogue loops below auto-vectorize under this file's
// codegen flags (a libm call per element does not). Every tanh and exp
// the substrate evaluates — fused and composed GeLU, softmax — runs
// these bodies from this one translation unit, so the fused and
// composed paths produce the same bits. scripts/lint.sh
// (libm-in-kernel) keeps libm calls out of this file.

// tanh: Eigen's float rational minimax fit, odd p(x) over even q(x),
// on x clamped to ±7.9053 (where the fit reaches 1.0f, or one ulp
// below it, depending on how the build contracts FMAs); beyond the
// clamp the result is exactly ±1, and tiny |x| returns x, which is
// what tanh rounds to there. Within 7 ulp of the double-precision tanh
// on [-20, 20] (5 ulp with FMA contraction). p is x times a polynomial
// in x², so tanh(-x) == -tanh(x) bit for bit; |tanh| <= 1, and NaN
// fails both comparisons and passes through the clamp (std::max and
// std::min keep their first operand on NaN).
inline float tanh_f32(float x) {
  constexpr float kClamp = 7.90531110763549805f;
  constexpr float kTiny = 0.0004f;
  const float xc = std::min(std::max(x, -kClamp), kClamp);
  const float x2 = xc * xc;
  float p = -2.76076847742355e-16f;
  p = p * x2 + 2.00018790482477e-13f;
  p = p * x2 - 8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  p = xc * p;
  float q = 1.19825839466702e-06f;
  q = q * x2 + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  const float ax = std::fabs(x);
  const float t = ax < kTiny ? x : p / q;
  return ax > kClamp ? std::copysign(1.0f, x) : t;
}

// exp: Cody–Waite reduction x = n·ln2 + r with |r| <= ln2/2 (ln2 split
// into an exact high part and a low correction), Cephes' polynomial
// 1 + r + r²·P(r) with P of degree 5, and 2^n assembled in the exponent
// bits. n is rounded with the 1.5·2^23 shifter and read back from the
// shifted float's mantissa bits, so no float->int conversion ever sees
// a NaN. 2^n is applied as two halves, keeping both ends of the clamped
// range (n in [-127, 128]) representable. Within 1 ulp of the
// double-precision exp on [-87.3, 0]; exp(0) == 1 exactly; inputs
// below ln(FLT_MIN), whose results would be subnormal, give exactly 0;
// above ln(FLT_MAX) and at +inf the result is +inf; NaN passes through.
inline float exp_f32(float x) {
  constexpr float kLo = -88.0f;   // clamp: n stays in [-127, 128]
  constexpr float kHi = 88.723f;  // just above ln(FLT_MAX)
  constexpr float kUnderflow = -87.33654f;  // just above ln(FLT_MIN)
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;  // 8 significant bits: n·hi exact
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kShifter = 12582912.0f;  // 1.5 * 2^23
  const float xc = std::min(std::max(x, kLo), kHi);
  const float t = xc * kLog2e + kShifter;  // low mantissa bits hold n
  const float n = t - kShifter;
  float r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  const int32_t ni = static_cast<int32_t>(std::bit_cast<uint32_t>(t) -
                                          std::bit_cast<uint32_t>(kShifter));
  const int32_t half = ni >> 1;
  const float s1 =
      std::bit_cast<float>(static_cast<uint32_t>(half + 127) << 23);
  const float s2 =
      std::bit_cast<float>(static_cast<uint32_t>(ni - half + 127) << 23);
  return x < kUnderflow ? 0.0f : p * s1 * s2;
}

// GeLU (tanh approximation) and its derivative.
inline float gelu_value(float v) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  return 0.5f * v * (1.0f + tanh_f32(kC * (v + 0.044715f * v * v * v)));
}
inline float gelu_derivative(float v) {
  constexpr float kC = 0.7978845608028654f;
  const float u = kC * (v + 0.044715f * v * v * v);
  const float t = tanh_f32(u);
  const float dudv = kC * (1.0f + 3.0f * 0.044715f * v * v);
  return 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dudv;
}

// Row-range bodies shared by the serial and pooled paths, so the
// arithmetic (and therefore the bits) cannot diverge between them.

void bias_gelu_rows(const float* x, const float* bias, float* y, int64_t r0,
                    int64_t r1, int64_t h) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* xr = x + r * h;
    float* yr = y + r * h;
    for (int64_t j = 0; j < h; ++j) yr[j] = gelu_value(xr[j] + bias[j]);
  }
}

// Column-range body: dbias[j] sums rows in increasing r within [j0,j1),
// exactly the composed sum_to_last_dim order — partitioning columns
// (never rows) is what keeps dbias bit-identical at any thread count.
void bias_gelu_grad_cols(const float* x, const float* bias, const float* dy,
                         float* dx, float* dbias, int64_t rows, int64_t h,
                         int64_t j0, int64_t j1) {
  std::memset(dbias + j0, 0, sizeof(float) * static_cast<size_t>(j1 - j0));
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * h;
    const float* gr = dy + r * h;
    float* dr = dx + r * h;
    for (int64_t j = j0; j < j1; ++j) {
      const float d = gr[j] * gelu_derivative(xr[j] + bias[j]);
      dr[j] = d;
      dbias[j] += d;
    }
  }
}

// The softmax row sums (the denominator and the backward's row dot)
// accumulate in kLanes fixed double partials: column j folds into lane
// j % kLanes and the lanes combine in one fixed order. That lets the
// sums vectorize, while a row's result still depends only on its own
// values — not on the thread split (threads take whole rows) nor on
// how many rows share the call (decode's one-row softmax matches the
// model's). The row max is exact, so its order never matters.
constexpr int64_t kLanes = 8;

// Order-preserving map between floats and int32 keys (an involution):
// non-negative floats keep their bits, negative ones flip the magnitude
// bits, so signed integer order matches float order. Float max is not a
// reduction GCC vectorizes without finite-math flags; int max is.
inline int32_t order_key(int32_t bits) {
  return bits ^ ((bits >> 31) & 0x7fffffff);
}

// max_j alpha * in[j] over [0, n). A NaN (positive-signed) wins the max,
// which leaves the row NaN, as its denominator would anyway.
float scaled_row_max(const float* in, int64_t n, float alpha) {
  int32_t m = order_key(
      std::bit_cast<int32_t>(-std::numeric_limits<float>::infinity()));
  for (int64_t j = 0; j < n; ++j)
    m = std::max(m, order_key(std::bit_cast<int32_t>(alpha * in[j])));
  return std::bit_cast<float>(order_key(m));
}

// sum_j term(j) over [0, n): float terms accumulated in double lanes,
// combined pairwise as ((0+1)+(2+3))+((4+5)+(6+7)).
template <typename Term>
double lane_sum(int64_t n, const Term& term) {
  static_assert(kLanes == 8, "the combine below is written out for 8 lanes");
  double s[kLanes] = {};
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) s[l] += term(j + l);
  }
  for (; j < n; ++j) s[j % kLanes] += term(j);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void scaled_softmax_rows(const float* x, float* y, int64_t r0, int64_t r1,
                         int64_t sq, int64_t sk, float alpha, bool causal) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* in = x + r * sk;
    float* out = y + r * sk;
    const int64_t qi = causal ? (r % sq) : 0;
    const int64_t valid =
        causal ? std::min<int64_t>(sk, qi + 1 + (sk - sq)) : sk;
    const float mx = scaled_row_max(in, valid, alpha);
    for (int64_t j = 0; j < valid; ++j) out[j] = exp_f32(alpha * in[j] - mx);
    const double denom = lane_sum(valid, [&](int64_t j) { return out[j]; });
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < valid; ++j) out[j] *= inv;
    for (int64_t j = valid; j < sk; ++j) out[j] = 0.0f;
  }
}

void scaled_softmax_grad_rows(const float* y, const float* dy, float* dx,
                              int64_t r0, int64_t r1, int64_t n, float alpha) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* yr = y + r * n;
    const float* gr = dy + r * n;
    float* dr = dx + r * n;
    const float d = static_cast<float>(
        lane_sum(n, [&](int64_t j) { return yr[j] * gr[j]; }));
    for (int64_t j = 0; j < n; ++j) dr[j] = alpha * (yr[j] * (gr[j] - d));
  }
}

// Partitions [0, count) into pool slots (contiguous, align-rounded
// chunks) and runs body(begin, end) on each. Every element is handled
// by exactly one slot and per-element work is order-independent across
// slots, so the result is bit-identical at any thread count.
template <typename Body>
void parallel_ranges(int64_t count, int64_t total_elems, int64_t align,
                     const Body& body) {
  int nt = threads();
  if (nt > 1 && total_elems < kElemGrain) nt = 1;
  if (nt == 1 || count <= 1) {
    body(0, count);
    return;
  }
  const int64_t chunk = ceil_div(ceil_div(count, nt), align) * align;
  const int nslots = static_cast<int>(ceil_div(count, chunk));
  if (nslots <= 1) {
    body(0, count);
    return;
  }
  WorkerPool::local().run(nslots, [&](int slot) {
    const int64_t b = slot * chunk;
    const int64_t e = std::min(count, b + chunk);
    if (b < e) body(b, e);
  });
}

}  // namespace

void bias_gelu(const float* x, const float* bias, float* y, int64_t rows,
               int64_t h) {
  parallel_ranges(rows, rows * h, 1, [&](int64_t r0, int64_t r1) {
    bias_gelu_rows(x, bias, y, r0, r1, h);
  });
}

void bias_gelu_grad(const float* x, const float* bias, const float* dy,
                    float* dx, float* dbias, int64_t rows, int64_t h) {
  // Column partition (16-aligned against false sharing on dx rows).
  parallel_ranges(h, rows * h, 16, [&](int64_t j0, int64_t j1) {
    bias_gelu_grad_cols(x, bias, dy, dx, dbias, rows, h, j0, j1);
  });
}

void scaled_softmax(const float* x, float* y, int64_t rows, int64_t sq,
                    int64_t sk, float alpha, bool causal) {
  parallel_ranges(rows, rows * sk, 1, [&](int64_t r0, int64_t r1) {
    scaled_softmax_rows(x, y, r0, r1, sq, sk, alpha, causal);
  });
}

void scaled_softmax_grad(const float* y, const float* dy, float* dx,
                         int64_t rows, int64_t n, float alpha) {
  parallel_ranges(rows, rows * n, 1, [&](int64_t r0, int64_t r1) {
    scaled_softmax_grad_rows(y, dy, dx, r0, r1, n, alpha);
  });
}

void tanh(const float* x, float* y, int64_t n) {
  parallel_ranges(n, n, 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = tanh_f32(x[i]);
  });
}

void exp(const float* x, float* y, int64_t n) {
  parallel_ranges(n, n, 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = exp_f32(x[i]);
  });
}

void gelu(const float* x, float* y, int64_t n) {
  parallel_ranges(n, n, 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = gelu_value(x[i]);
  });
}

void gelu_grad(const float* x, const float* dy, float* dx, int64_t n) {
  parallel_ranges(n, n, 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dx[i] = dy[i] * gelu_derivative(x[i]);
  });
}

// ---------------------------------------------------- stateless dropout
namespace {

// splitmix64 finalizer: a high-quality stateless hash of a 64-bit key.
// Integer-only, so the row loop below vectorizes (64-bit lane multiplies
// where the target has them; bits are the same either way).
inline uint64_t hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One contiguous run of w elements whose first element sits at global
// index g0: element j is global g0 + j. keep iff hash(seed ^ gidx) >=
// threshold, i.e. hash / 2^64 >= p. A null mask is checked once per row.
void dropout_row(const float* x, float* y, uint8_t* mask, int64_t w,
                 int64_t g0, uint64_t seed, uint64_t threshold,
                 float inv_keep) {
  if (mask == nullptr) {
    for (int64_t j = 0; j < w; ++j) {
      const bool keep =
          hash64(seed ^ static_cast<uint64_t>(g0 + j)) >= threshold;
      y[j] = keep ? x[j] * inv_keep : 0.0f;
    }
    return;
  }
  // A 32-bit keep lane, stored to the mask before y, vectorizes best
  // (the bool-typed form narrows through extra shuffles).
  for (int64_t j = 0; j < w; ++j) {
    const uint32_t keep =
        hash64(seed ^ static_cast<uint64_t>(g0 + j)) >= threshold;
    mask[j] = static_cast<uint8_t>(keep);
    y[j] = keep ? x[j] * inv_keep : 0.0f;
  }
}

// Rows [r0, r1) of the local tensor viewed as [rows, w]. Row r's global
// base is base + sum_d coord_d * strides[d] over the outer dims; it is
// decomposed once at r0 and then stepped one row at a time.
void dropout_rows(const float* x, float* y, uint8_t* mask, const int64_t* dims,
                  const int64_t* strides, int nd, int64_t base, uint64_t seed,
                  uint64_t threshold, float inv_keep, int64_t r0, int64_t r1) {
  const int64_t w = nd > 0 ? dims[nd - 1] : 1;
  std::vector<int64_t> coord(static_cast<size_t>(nd), 0);
  int64_t g = base;
  int64_t rem = r0;
  for (int d = nd - 2; d >= 0; --d) {
    coord[static_cast<size_t>(d)] = rem % dims[d];
    rem /= dims[d];
    g += coord[static_cast<size_t>(d)] * strides[d];
  }
  for (int64_t r = r0; r < r1; ++r) {
    dropout_row(x + r * w, y + r * w, mask != nullptr ? mask + r * w : nullptr,
                w, g, seed, threshold, inv_keep);
    for (int d = nd - 2; d >= 0; --d) {
      g += strides[d];
      if (++coord[static_cast<size_t>(d)] < dims[d]) break;
      g -= strides[d] * dims[d];
      coord[static_cast<size_t>(d)] = 0;
    }
  }
}

}  // namespace

void dropout_stateless(const float* x, float* y, uint8_t* mask,
                       const int64_t* dims, const int64_t* strides, int nd,
                       int64_t base, uint64_t seed, float p) {
  int64_t n = 1;
  for (int d = 0; d < nd; ++d) n *= dims[d];
  if (n == 0) return;
  const int64_t w = nd > 0 ? dims[nd - 1] : 1;
  const float inv_keep = 1.0f / (1.0f - p);
  const uint64_t threshold =
      static_cast<uint64_t>(p * 18446744073709551615.0);  // p * (2^64 - 1)
  parallel_ranges(n / w, n, 1, [&](int64_t r0, int64_t r1) {
    dropout_rows(x, y, mask, dims, strides, nd, base, seed, threshold,
                 inv_keep, r0, r1);
  });
}

void dropout_grad(const float* dy, const uint8_t* mask, float* dx, int64_t n,
                  float p) {
  const float inv_keep = 1.0f / (1.0f - p);
  parallel_ranges(n, n, 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i)
      dx[i] = dy[i] * static_cast<float>(mask[i]) * inv_keep;
  });
}

// ---------------------------------------------------- layout transposes

void sbh_to_bhsd(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d) {
  // y[(bi*heads+hi), si, :] = x[si, bi, hi*d : (hi+1)*d]. The d-row is
  // contiguous in both layouts; walk the output so writes stream.
  const int64_t x_row = b * heads * d;  // stride between si steps in x
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(d);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t hi = 0; hi < heads; ++hi) {
      const float* src = x + bi * heads * d + hi * d;
      float* dst = y + (bi * heads + hi) * s * d;
      for (int64_t si = 0; si < s; ++si) {
        std::memcpy(dst + si * d, src + si * x_row, row_bytes);
      }
    }
  }
}

void bhsd_to_sbh(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d) {
  const int64_t y_row = b * heads * d;
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(d);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t hi = 0; hi < heads; ++hi) {
      const float* src = x + (bi * heads + hi) * s * d;
      float* dst = y + bi * heads * d + hi * d;
      for (int64_t si = 0; si < s; ++si) {
        std::memcpy(dst + si * y_row, src + si * d, row_bytes);
      }
    }
  }
}

}  // namespace mls::kernels
