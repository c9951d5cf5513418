#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.h"
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

// The CPUs the calling thread may run on (its affinity mask), in
// ascending order; every online CPU where no mask can be read.
std::vector<int> affinity_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  if (cpus.empty()) {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < n; ++c) cpus.push_back(static_cast<int>(c));
  }
  return cpus;
}

// ------------------------------------------------------- rank binding
thread_local RankBinding t_binding;

// The calling thread's rank slice: rank r of W takes the CPUs at
// indices [r*C/W, (r+1)*C/W) of the C CPUs in the thread's affinity
// mask (one CPU, index r mod C, when W >= C). The mask is read once per
// binding — by bind_rank before it pins the rank thread, or at an
// unbound thread's first kernel — so the slice always lies inside the
// mask the thread inherited from its launcher.
const std::vector<int>& rank_slice() {
  struct Slice {
    int rank = -1, world = -1;
    std::vector<int> cpus;
  };
  thread_local Slice slice;
  if (slice.rank == t_binding.rank && slice.world == t_binding.world)
    return slice.cpus;
  const std::vector<int> mask = affinity_cpus();
  const int cores = static_cast<int>(mask.size());
  const int world = std::max(1, t_binding.world);
  const int rank = std::clamp(t_binding.rank, 0, world - 1);
  int lo = rank % cores, hi = lo + 1;
  if (world < cores) {
    lo = rank * cores / world;
    hi = std::max(lo + 1, (rank + 1) * cores / world);
  }
  slice = {t_binding.rank, t_binding.world,
           std::vector<int>(mask.begin() + lo, mask.begin() + hi)};
  return slice.cpus;
}

// Microseconds a worker spins for the next kernel before parking: 100
// when the rank's slice holds more than one CPU, 0 when the owner and
// its workers share one CPU (a spinning waiter would only delay them).
int spin_us() { return rank_slice().size() > 1 ? 100 : 0; }

// Restricts the calling thread to the n CPUs at cpus.
void pin_thread(const int* cpus, size_t n) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < n; ++i) CPU_SET(static_cast<unsigned>(cpus[i]), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpus;
  (void)n;
#endif
}

// ------------------------------------------------------------- packing
// N floats of packing scratch on a cache line, as the pool allocator's
// segments are, so no full-width vector load of a packed panel splits
// two lines (a std::vector's alignment varied by thread). Allocated at
// first use, freed with its owner.
template <int64_t N>
class Scratch {
 public:
  float* get() {
    if (!buf_) {
      void* p = nullptr;
      MLS_CHECK(posix_memalign(&p, 64, N * sizeof(float)) == 0 &&
                reinterpret_cast<uintptr_t>(p) % 64 == 0)
          << "packing scratch is not 64-byte aligned";
      buf_.reset(static_cast<float*>(p));
    }
    return buf_.get();
  }

 private:
  struct Free {
    void operator()(float* p) const { std::free(p); }
  };
  std::unique_ptr<float, Free> buf_;
};

// Per-thread packing scratch: the submitting thread and every
// persistent worker own their panels outright, reused across calls —
// packing never contends and never reallocates in steady state.
thread_local Scratch<MC * KC> tl_pack_a;
thread_local Scratch<KC * NC> tl_pack_b;

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

// C[MR x NR] tile over kc k steps. Element (i, kk) of the tile's A rows
// sits at a[i * rs_a + kk * cs_a]: a packed panel (kPackedA: the strides
// are the constants 1 and MR, so its loads keep fixed offsets) or, for
// narrow GEMMs, A's own storage read in place. Row kk of the
// NR-wide B panel starts at b + kk * ldb: a packed panel (ldb = NR) or,
// for short-M GEMMs, B's own rows read in place (ldb = B's row stride).
// Each accumulator starts at +0 and takes one FMA per k step in
// ascending k, so an element's bits do not depend on which A or B path
// fed it. Zero-padded A rows mean every tile runs the full MR x NR body;
// full tiles write C straight from the registers, edge tiles through a
// spilled copy that respects the true mr x nr edge.
template <bool kPackedA>
void micro_kernel(const float* a, int64_t rs_a, int64_t cs_a, const float* b,
                  int64_t ldb, float* c, int64_t ldc, int64_t kc, int64_t mr,
                  int64_t nr, bool accumulate) {
  if constexpr (kPackedA) {
    rs_a = 1;
    cs_a = MR;
  }
  Vec acc[MR][2] = {};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* ak = a + kk * cs_a;
    const Vec b0 = load_vec(b + kk * ldb);
    const Vec b1 = load_vec(b + kk * ldb + kVecLanes);
#pragma GCC unroll 6
    for (int64_t i = 0; i < MR; ++i) {
      acc[i][0] += ak[i * rs_a] * b0;
      acc[i][1] += ak[i * rs_a] * b1;
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
  return std::clamp(static_cast<int>(rank_slice().size()), 1, kMaxSlots);
}

bool use_reference() { return core::Env::flag("MLS_KERNEL_REF", false); }

void bind_rank(int rank, int world) {
  t_binding = {rank, std::max(1, world)};
  const std::vector<int>& cpus = rank_slice();
  pin_thread(cpus.data(), cpus.size());
}

RankBinding rank_binding() { return t_binding; }

void gemm_blocked(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, bool trans_a, bool trans_b,
                  int64_t lda, int64_t ldb, int64_t ldc, Tri tri,
                  int64_t diag) {
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

  float* ap = tl_pack_a.get();
  float* bp = tl_pack_b.get();
  const bool b_in_place = m <= kShortM && cs_b == 1;
  // One NR panel of op(B): each A element feeds one tile once, so
  // packing A would only copy it. Full MR tiles read A in place.
  const bool a_in_place = n <= NR;
  // kOut: columns past the last row's diagonal are dead in every row.
  const int64_t n_live = tri == Tri::kOut ? std::min(n, m + diag) : n;

  for (int64_t jc = 0; jc < n_live; jc += NC) {
    const int64_t nc = std::min(NC, n_live - jc);
    const int64_t n_edge = nc - nc % NR;  // first column of a partial panel
    for (int64_t pc = 0; pc < k; pc += KC) {
      const int64_t kc = std::min(KC, k - pc);
      // Panels that hold no row's live k range.
      if (tri == Tri::kALower && pc >= m + diag) break;
      if (tri == Tri::kAUpper && pc + kc <= diag) continue;
      const float* bblock = b + pc * rs_b + jc * cs_b;
      if (!b_in_place) {
        pack_b(bblock, bp, kc, nc, rs_b, cs_b);
      } else if (n_edge < nc) {
        pack_b_panel(bblock + n_edge, bp + (n_edge / NR) * kc * NR, kc,
                     nc - n_edge, rs_b, cs_b);
      }
      for (int64_t ic = 0; ic < m; ic += MC) {
        const int64_t mc = std::min(MC, m - ic);
        // The block's live k range [k0, k1) within this panel.
        int64_t k0 = pc, k1 = pc + kc;
        if (tri == Tri::kALower) k1 = std::min(k1, ic + mc + diag);
        if (tri == Tri::kAUpper) k0 = std::max(k0, ic + diag);
        if (k0 >= k1) continue;
        const int64_t kb = k1 - k0;
        const float* ablock = a + ic * rs_a + k0 * cs_a;
        // Rows [0, m_in_place) of the block are read in place; the rest
        // are packed into MR-tall panels of kb steps.
        const int64_t m_in_place = a_in_place ? mc - mc % MR : 0;
        if (m_in_place < mc) {
          pack_a(ablock + m_in_place * rs_a, ap, mc - m_in_place, kb, rs_a,
                 cs_a);
        }
        float* cblock = c + ic * ldc + jc;
        for (int64_t jr = 0; jr < nc; jr += NR) {
          const int64_t nr = std::min(NR, nc - jr);
          const bool direct = b_in_place && nr == NR;
          const float* panel = direct ? bblock + jr : bp + (jr / NR) * kc * NR;
          const int64_t ldp = direct ? rs_b : NR;
          for (int64_t ir = 0; ir < mc; ir += MR) {
            const int64_t mr = std::min(MR, mc - ir);
            // The tile's rows on the triangle, and its live k range.
            const int64_t row0 = ic + ir + diag;
            const int64_t row1 = row0 + mr;
            if (tri == Tri::kOut && jc + jr >= row1) continue;
            int64_t t0 = k0, t1 = k1;
            if (tri == Tri::kALower) t1 = std::min(t1, row1);
            if (tri == Tri::kAUpper) t0 = std::max(t0, row0);
            if (t0 >= t1) continue;
            // beta = 0: the tile's first live panel writes C, later
            // panels accumulate.
            const bool accumulate =
                pc > (tri == Tri::kAUpper ? row0 : int64_t{0});
            const float* bt = panel + (t0 - pc) * ldp;
            float* ct = cblock + ir * ldc + jr;
            if (ir < m_in_place) {
              micro_kernel<false>(ablock + ir * rs_a + (t0 - k0) * cs_a, rs_a,
                                  cs_a, bt, ldp, ct, ldc, t1 - t0, mr, nr,
                                  accumulate);
            } else {
              micro_kernel<true>(
                  ap + ((ir - m_in_place) / MR) * kb * MR + (t0 - k0) * MR, 1,
                  MR, bt, ldp, ct, ldc, t1 - t0, mr, nr, accumulate);
            }
          }
        }
      }
    }
  }
}

GemmTile gemm_tile() { return {MR, NR, kShortM}; }

void gemm_ref(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, bool trans_a, bool trans_b, int64_t lda, int64_t ldb,
              int64_t ldc) {
  lda = lda > 0 ? lda : trans_a ? m : k;
  ldb = ldb > 0 ? ldb : trans_b ? k : n;
  ldc = ldc > 0 ? ldc : n;
  auto A = [&](int64_t i, int64_t kk) {
    return trans_a ? a[kk * lda + i] : a[i * lda + kk];
  };
  if (!trans_b) {
    // i-k-j saxpy order; C row zeroed up front (beta = 0). The zero
    // operand is NOT skipped: a data-dependent branch here made kernel
    // timing depend on the values, skewing wall-clock benches (bench_overhead).
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      std::memset(crow, 0, sizeof(float) * static_cast<size_t>(n));
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = A(i, kk);
        const float* brow = b + kk * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    // B is [n, k]; dot rows of A with rows of B (double accumulator,
    // preserved from the seed kernel for A/B comparability).
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
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

// Marks pool worker threads so a re-entrant run() (which would
// deadlock) runs its slots inline instead.
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

  // Runs fn(slot) on nslots slots (the caller executing slot 0) and
  // joins: returns when every slot completed. On a pool worker (a nested
  // threaded kernel) every slot runs inline, in order.
  void run(int nslots, const std::function<void(int)>& fn) {
    nslots = std::min(nslots, kMaxSlots);
    if (nslots <= 1 || t_in_pool_worker) {
      for (int slot = 0; slot < std::max(nslots, 1); ++slot) fn(slot);
      return;
    }
    spawn(nslots - 1);
    const int nworkers = static_cast<int>(workers_.size());
    job_fn_ = &fn;
    job_nslots_ = nslots;
    job_binding_ = t_binding;
    job_cpus_ = &rank_slice();
    job_owner_index_ = 0;
#ifdef __linux__
    const auto here =
        std::find(job_cpus_->begin(), job_cpus_->end(), sched_getcpu());
    if (here != job_cpus_->end())
      job_owner_index_ = static_cast<size_t>(here - job_cpus_->begin());
#endif
    job_spin_us_ = spin_us();
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
      // Kernels do not throw; this keeps a misbehaving job from
      // abandoning the workers mid-protocol.
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
    int pinned_cpu = -1;  // the CPU this worker was last pinned to
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
      // Worker i takes the CPU 1 + i places after the owner's in its
      // rank's slice (wrapped), so the floating owner shares no worker's
      // CPU while the slice has room. Re-pinned only when that moves.
      const int cpu = (*job_cpus_)[(job_owner_index_ + 1 + index) %
                                   job_cpus_->size()];
      if (cpu != pinned_cpu) {
        pin_thread(&cpu, 1);
        pinned_cpu = cpu;
      }
      const int slot = 1 + index;
      if (slot < job_nslots_) {
        t_binding = job_binding_;  // the worker computes for its owner
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
  // The owner's rank slice (its thread_local, stable while the owner
  // waits out the job).
  const std::vector<int>* job_cpus_ = nullptr;
  // Where in *job_cpus_ the owner ran when it published (0 if outside).
  size_t job_owner_index_ = 0;
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
  std::vector<Worker> workers_;
  uint64_t jobs_ = 0;
};

// Threads for a kernel of `work` units: threads(), or 1 when the work is
// below the kernel's grain and a fan-out would cost more than it saves.
int threads_for(int64_t work, int64_t grain) {
  return work < grain ? 1 : threads();
}

// How a kernel's work spreads over its extent: evenly, or triangular —
// rising (item r costs about r + 1, a causal row's live prefix) or
// falling (item r costs about count - r).
enum class Load { kFlat, kRising, kFalling };

// The one way a kernel runs threaded: [0, count) is cut into up to nt
// contiguous, align-rounded slabs of about equal work, each slot runs
// body(begin, end) on its own slab (with its own thread-local scratch),
// and the slots join once. A flat load gets equal extents; a triangular
// one gets its boundaries near count·√(t/nt) (mirrored when falling),
// so slot 0 of a causal kernel is not left a quarter of the work at two
// threads. Every element belongs to exactly one slab and no element's
// arithmetic depends on the slab bounds, so the bits are those of
// body(0, count) at any thread count.
template <typename Body>
void parallel_ranges(int64_t count, int64_t align, int nt, const Body& body,
                     Load load = Load::kFlat) {
  if (nt <= 1 || count <= 1) {
    body(0, count);
    return;
  }
  if (load == Load::kFlat) {
    const int64_t chunk = ceil_div(ceil_div(count, nt), align) * align;
    WorkerPool::local().run(static_cast<int>(ceil_div(count, chunk)),
                            [&](int slot) {
                              const int64_t begin = slot * chunk;
                              body(begin, std::min(count, begin + chunk));
                            });
    return;
  }
  nt = std::min(nt, kMaxSlots);
  auto bound = [&](int t) -> int64_t {
    if (t >= nt) return count;
    const double f = static_cast<double>(t) / nt;
    const double x = load == Load::kRising ? std::sqrt(f)
                                           : 1.0 - std::sqrt(1.0 - f);
    const auto aligned = static_cast<int64_t>(
        x * static_cast<double>(count) / static_cast<double>(align) + 0.5);
    return std::min(count, aligned * align);
  };
  WorkerPool::local().run(nt, [&](int slot) {
    const int64_t begin = bound(slot), end = bound(slot + 1);
    if (begin < end) body(begin, end);
  });
}

// The load of a causal row kernel over rows of [sq, sk] blocks: rising
// when the rows are one block, flat when they are several (or the
// kernel is not causal).
Load row_load(int64_t rows, int64_t sq, bool causal) {
  return causal && rows == sq ? Load::kRising : Load::kFlat;
}

// Row qi's live prefix in a causal [sq, sk] block (scaled_softmax's
// rule), or the whole row.
int64_t live_cols(int64_t r, int64_t sq, int64_t sk, bool causal) {
  if (!causal) return sk;
  return std::clamp<int64_t>(r % sq + 1 + (sk - sq), 0, sk);
}

}  // namespace

PoolStats local_pool_stats() { return WorkerPool::local().stats(); }

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b, Tri tri, int64_t lda,
          int64_t ldb, int64_t ldc) {
  if (use_reference()) {
    gemm_ref(a, b, c, m, n, k, trans_a, trans_b, lda, ldb, ldc);
    return;
  }
  MLS_CHECK(tri == Tri::kNone || (tri == Tri::kOut ? m == n : m == k))
      << "triangle GEMM wants a square causal block: m=" << m << " n=" << n
      << " k=" << k;
  lda = lda > 0 ? lda : trans_a ? m : k;
  ldb = ldb > 0 ? ldb : trans_b ? k : n;
  ldc = ldc > 0 ? ldc : n;
  const int nt = threads_for(m * n * k, kParallelGrain);
  if (m <= kShortM || m / MR < nt) {
    // N slabs: too few row tiles to give every slot rows, and a short
    // GEMM's cost is streaming B. Each NR-aligned column slab reads its
    // own columns of B (in place when short), so B is read once overall.
    // Under kOut a column's live rows fall as the column index rises.
    const int64_t cs_b = trans_b ? ldb : 1;
    parallel_ranges(
        n, NR, nt,
        [&](int64_t j0, int64_t j1) {
          gemm_blocked(a, b + j0 * cs_b, c + j0, m, j1 - j0, k, trans_a,
                       trans_b, lda, ldb, ldc, tri,
                       tri == Tri::kOut ? -j0 : 0);
        },
        tri == Tri::kOut ? Load::kFalling : Load::kFlat);
    return;
  }
  // M slabs: MR-aligned row ranges, each a serial blocked GEMM that packs
  // its own B panels (or reads B in place when the slab is short). A row
  // of kOut or kALower has as much live work as its index; of kAUpper, as
  // its distance from the end.
  const int64_t rs_a = trans_a ? 1 : lda;
  const Load load = tri == Tri::kNone      ? Load::kFlat
                    : tri == Tri::kAUpper ? Load::kFalling
                                          : Load::kRising;
  parallel_ranges(
      m, MR, nt,
      [&](int64_t i0, int64_t i1) {
        gemm_blocked(a + i0 * rs_a, b, c + i0 * ldc, i1 - i0, n, k, trans_a,
                     trans_b, lda, ldb, ldc, tri, i0);
      },
      load);
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
  const int nt = threads_for(nb * m * n * k, kParallelGrain);
  if (nb < nt) {
    // Too few batches to give every slot one: slab each batch's GEMM.
    for (int64_t i = 0; i < nb; ++i) {
      gemm(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n, k,
           trans_a, trans_b);
    }
    return;
  }
  // Batch slabs: each slot runs the serial blocked GEMM on its batches.
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  parallel_ranges(nb, 1, nt, [&](int64_t i0, int64_t i1) {
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
    const int64_t valid = live_cols(r, sq, sk, causal);
    const float mx = scaled_row_max(in, valid, alpha);
    for (int64_t j = 0; j < valid; ++j) out[j] = exp_f32(alpha * in[j] - mx);
    const double denom = lane_sum(valid, [&](int64_t j) { return out[j]; });
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < valid; ++j) out[j] *= inv;
    for (int64_t j = valid; j < sk; ++j) out[j] = 0.0f;
  }
}

void scaled_softmax_grad_rows(const float* y, const float* dy, float* dx,
                              int64_t r0, int64_t r1, int64_t sq, int64_t sk,
                              float alpha, bool causal) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* yr = y + r * sk;
    const float* gr = dy + r * sk;
    float* dr = dx + r * sk;
    const int64_t valid = live_cols(r, sq, sk, causal);
    const float d = static_cast<float>(
        lane_sum(valid, [&](int64_t j) { return yr[j] * gr[j]; }));
    for (int64_t j = 0; j < valid; ++j) dr[j] = alpha * (yr[j] * (gr[j] - d));
    for (int64_t j = valid; j < sk; ++j) dr[j] = 0.0f;
  }
}

}  // namespace

void bias_gelu(const float* x, const float* bias, float* y, int64_t rows,
               int64_t h) {
  const int nt = threads_for(rows * h, kElemGrain);
  parallel_ranges(rows, 1, nt, [&](int64_t r0, int64_t r1) {
    bias_gelu_rows(x, bias, y, r0, r1, h);
  });
}

void bias_gelu_grad(const float* x, const float* bias, const float* dy,
                    float* dx, float* dbias, int64_t rows, int64_t h) {
  // Column partition (16-aligned against false sharing on dx rows).
  const int nt = threads_for(rows * h, kElemGrain);
  parallel_ranges(h, 16, nt, [&](int64_t j0, int64_t j1) {
    bias_gelu_grad_cols(x, bias, dy, dx, dbias, rows, h, j0, j1);
  });
}

void scaled_softmax(const float* x, float* y, int64_t rows, int64_t sq,
                    int64_t sk, float alpha, bool causal) {
  const int nt = threads_for(rows * sk, kElemGrain);
  parallel_ranges(
      rows, 1, nt,
      [&](int64_t r0, int64_t r1) {
        scaled_softmax_rows(x, y, r0, r1, sq, sk, alpha, causal);
      },
      row_load(rows, sq, causal));
}

void scaled_softmax_grad(const float* y, const float* dy, float* dx,
                         int64_t rows, int64_t sq, int64_t sk, float alpha,
                         bool causal) {
  const int nt = threads_for(rows * sk, kElemGrain);
  parallel_ranges(
      rows, 1, nt,
      [&](int64_t r0, int64_t r1) {
        scaled_softmax_grad_rows(y, dy, dx, r0, r1, sq, sk, alpha, causal);
      },
      row_load(rows, sq, causal));
}

void tanh(const float* x, float* y, int64_t n) {
  parallel_ranges(n, 16, threads_for(n, kElemGrain), [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = tanh_f32(x[i]);
  });
}

void exp(const float* x, float* y, int64_t n) {
  parallel_ranges(n, 16, threads_for(n, kElemGrain), [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = exp_f32(x[i]);
  });
}

void gelu(const float* x, float* y, int64_t n) {
  parallel_ranges(n, 16, threads_for(n, kElemGrain), [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = gelu_value(x[i]);
  });
}

void gelu_grad(const float* x, const float* dy, float* dx, int64_t n) {
  parallel_ranges(n, 16, threads_for(n, kElemGrain), [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dx[i] = dy[i] * gelu_derivative(x[i]);
  });
}

// ------------------------------------------------ paged decode attention
namespace {

// Calls fn(pos, t, n, block) for each run of positions [p0, p1) that
// shares one block: the n positions from pos sit at columns / rows
// [t, t + n) of `block`.
template <typename Fn>
void for_each_block_run(const PagedKV& kv, int64_t p0, int64_t p1,
                        const Fn& fn) {
  const int64_t bt = kv.block_tokens;
  for (int64_t pos = p0; pos < p1;) {
    const int64_t t = pos % bt;
    const int64_t n = std::min(bt - t, p1 - pos);
    fn(pos, t, n, kv.blocks[pos / bt]);
    pos += n;
  }
}

// The first w (< kVecLanes) floats at p, zero-padded to a vector. The
// chains below run entirely in Vec, as micro_kernel's do, edges
// included: the compiler forms (or declines) FMAs per vector type and
// loop shape, so a scalar tail could round differently from the
// micro-kernel's lanes.
inline Vec load_vec_partial(const float* p, int64_t w) {
  float tmp[kVecLanes] = {};
  std::memcpy(tmp, p, sizeof(float) * static_cast<size_t>(w));
  return load_vec(tmp);
}

// Writes (or, with accumulate, adds onto) the first w lanes of acc at c:
// micro_kernel's edge-tile store.
inline void store_vec_lanes(float* c, Vec acc, int64_t w, bool accumulate) {
  if (w == kVecLanes) {
    if (accumulate) acc += load_vec(c);
    store_vec(c, acc);
    return;
  }
  float tmp[kVecLanes];
  store_vec(tmp, acc);
  for (int64_t l = 0; l < w; ++l) c[l] = accumulate ? c[l] + tmp[l] : tmp[l];
}

// Scores for NV vectors of K columns at once: kt[u] is the first of
// vector u's columns in a [d, bt] K slice, whose w[u] live lanes land at
// s[u]. Each lane is the chain micro_kernel gives a trans_b GEMM's
// element — from +0, one FMA per d step in ascending d, a fresh
// accumulator per absolute KC panel of d, each later panel's sum added
// onto the earlier ones. The NV chains are independent and interleave
// only to hide the FMA latency. With kPartial, a vector's columns run
// past the slice's bt, so only its w[0] live ones are read (NV == 1).
template <int NV, bool kPartial>
void score_vectors(const float* q, const float* const* kt, float* const* s,
                   const int64_t* w, int64_t bt, int64_t d) {
  static_assert(NV >= 1 && (!kPartial || NV == 1));
  for (int64_t pc = 0; pc < d; pc += KC) {
    const int64_t pe = std::min(d, pc + KC);
    Vec acc[NV] = {};
    for (int64_t kk = pc; kk < pe; ++kk) {
      if constexpr (kPartial) {
        acc[0] += q[kk] * load_vec_partial(kt[0] + kk * bt, w[0]);
      } else {
#pragma GCC unroll 4
        for (int u = 0; u < NV; ++u)
          acc[u] += q[kk] * load_vec(kt[u] + kk * bt);
      }
    }
#pragma GCC unroll 4
    for (int u = 0; u < NV; ++u)
      store_vec_lanes(s[u], acc[u], w[u], /*accumulate=*/pc > 0);
  }
}

// scores[0:len] over the sequence's K slices, one vector of columns at
// a time. A vector whose columns all lie inside its slice is read
// whole even when only its first w columns are live positions (the
// rest hold other or stale positions, never stored), so a block of bt
// >= kVecLanes columns costs no partial loads; those vectors run four
// at a time.
void paged_scores(const float* q, const PagedKV& kv, int64_t len, int64_t d,
                  float* scores) {
  const int64_t bt = kv.block_tokens;
  const float* kt[4];
  float* out[4];
  int64_t w[4];
  int pending = 0;
  for_each_block_run(kv, 0, len, [&](int64_t pos, int64_t t, int64_t n,
                                     const float* block) {
    for (int64_t c = 0; c < n; c += kVecLanes) {
      const float* col = block + kv.k_offset + t + c;
      float* dst = scores + pos + c;
      const int64_t live = std::min(kVecLanes, n - c);
      if (t + c + kVecLanes > bt) {
        score_vectors<1, true>(q, &col, &dst, &live, bt, d);
        continue;
      }
      kt[pending] = col;
      out[pending] = dst;
      w[pending] = live;
      if (++pending == 4) {
        score_vectors<4, false>(q, kt, out, w, bt, d);
        pending = 0;
      }
    }
  });
  for (int u = 0; u < pending; ++u)
    score_vectors<1, false>(q, kt + u, out + u, w + u, bt, d);
}

// ctx[j, j + NV vectors) over the positions [pc, pe) of one KC panel:
// one FMA per position in ascending order across blocks, from +0 — the
// chain micro_kernel gives a probs·V GEMM's element — added onto ctx
// when an earlier panel already wrote it. w < kVecLanes makes the one
// vector (NV == 1) a zero-padded edge. The blocks are walked here, not
// through for_each_block_run, so acc stays one loop-carried register
// chain across blocks, the shape micro_kernel's accumulators have.
template <int NV>
void context_columns(const float* p, const PagedKV& kv, int64_t pc,
                     int64_t pe, int64_t d, int64_t j, int64_t w,
                     float* ctx) {
  static_assert(NV >= 1);
  const int64_t bt = kv.block_tokens;
  Vec acc[NV] = {};
  for (int64_t b = pc / bt; b * bt < pe; ++b) {
    const int64_t t0 = std::max<int64_t>(pc - b * bt, 0);
    const int64_t t1 = std::min(pe - b * bt, bt);
    const float* v = kv.blocks[b] + kv.v_offset + j;
    const float* pb = p + b * bt;
    for (int64_t t = t0; t < t1; ++t) {
      const float* vr = v + t * d;
      if (w == kVecLanes) {
#pragma GCC unroll 4
        for (int u = 0; u < NV; ++u)
          acc[u] += pb[t] * load_vec(vr + u * kVecLanes);
      } else {
        acc[0] += pb[t] * load_vec_partial(vr, w);
      }
    }
  }
#pragma GCC unroll 4
  for (int u = 0; u < NV; ++u)
    store_vec_lanes(ctx + j + u * kVecLanes, acc[u], w, /*accumulate=*/pc > 0);
}

// ctx[0:d] = probs · V over [0, len), panel by absolute KC panel.
void paged_context(const float* p, const PagedKV& kv, int64_t len, int64_t d,
                   float* ctx) {
  for (int64_t pc = 0; pc < len; pc += KC) {
    const int64_t pe = std::min(len, pc + KC);
    int64_t j = 0;
    for (; j + 4 * kVecLanes <= d; j += 4 * kVecLanes)
      context_columns<4>(p, kv, pc, pe, d, j, kVecLanes, ctx);
    for (; j < d; j += kVecLanes)
      context_columns<1>(p, kv, pc, pe, d, j, std::min(kVecLanes, d - j), ctx);
  }
}

// gemm_ref's chains: a double accumulator per score (its trans_b
// row-dot) and the i-k-j saxpy over a zeroed context row.
void decode_attention_ref(const float* q, const PagedKV& kv, int64_t len,
                          int64_t d, float alpha, float* scores, float* probs,
                          float* ctx) {
  const int64_t bt = kv.block_tokens;
  for_each_block_run(kv, 0, len, [&](int64_t pos, int64_t t, int64_t n,
                                     const float* block) {
    const float* kt = block + kv.k_offset + t;
    for (int64_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < d; ++kk) acc += q[kk] * kt[kk * bt + i];
      scores[pos + i] = static_cast<float>(acc);
    }
  });
  scaled_softmax_rows(scores, probs, 0, 1, 1, len, alpha, /*causal=*/true);
  std::memset(ctx, 0, sizeof(float) * static_cast<size_t>(d));
  for_each_block_run(kv, 0, len, [&](int64_t pos, int64_t t, int64_t n,
                                     const float* block) {
    const float* v = block + kv.v_offset + t * d;
    for (int64_t i = 0; i < n; ++i, v += d) {
      const float w = probs[pos + i];
      for (int64_t j = 0; j < d; ++j) ctx[j] += w * v[j];
    }
  });
}

}  // namespace

void decode_attention(const float* q, const PagedKV& kv, int64_t len,
                      int64_t d, float alpha, float* scores, float* probs,
                      float* ctx) {
  if (use_reference()) {
    decode_attention_ref(q, kv, len, d, alpha, scores, probs, ctx);
    return;
  }
  paged_scores(q, kv, len, d, scores);
  scaled_softmax_rows(scores, probs, 0, 1, 1, len, alpha, /*causal=*/true);
  paged_context(probs, kv, len, d, ctx);
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

// A causal row's dead tail: y = 0 and, when drawn, mask = 0.
void zero_tail(float* y, uint8_t* mask, int64_t live, int64_t w) {
  if (live >= w) return;
  std::memset(y + live, 0, sizeof(float) * static_cast<size_t>(w - live));
  if (mask != nullptr)
    std::memset(mask + live, 0, static_cast<size_t>(w - live));
}

// Rows [r0, r1) of the local tensor viewed as [rows, w]. Row r's global
// base is base + sum_d coord_d * strides[d] over the outer dims; it is
// decomposed once at r0 and then stepped one row at a time.
void dropout_rows(const float* x, float* y, uint8_t* mask, const int64_t* dims,
                  const int64_t* strides, int nd, int64_t base, uint64_t seed,
                  uint64_t threshold, float inv_keep, bool causal, int64_t r0,
                  int64_t r1) {
  const int64_t w = nd > 0 ? dims[nd - 1] : 1;
  const int64_t sq = nd > 1 ? dims[nd - 2] : 1;
  std::vector<int64_t> coord(static_cast<size_t>(nd), 0);
  int64_t g = base;
  int64_t rem = r0;
  for (int d = nd - 2; d >= 0; --d) {
    coord[static_cast<size_t>(d)] = rem % dims[d];
    rem /= dims[d];
    g += coord[static_cast<size_t>(d)] * strides[d];
  }
  for (int64_t r = r0; r < r1; ++r) {
    const int64_t live = live_cols(r, sq, w, causal);
    uint8_t* mrow = mask != nullptr ? mask + r * w : nullptr;
    dropout_row(x + r * w, y + r * w, mrow, live, g, seed, threshold,
                inv_keep);
    zero_tail(y + r * w, mrow, live, w);
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
                       int64_t base, uint64_t seed, float p, bool causal) {
  MLS_CHECK(!causal || nd >= 2) << "causal dropout wants [sq, sk] rows";
  int64_t n = 1;
  for (int d = 0; d < nd; ++d) n *= dims[d];
  if (n == 0) return;
  const int64_t w = nd > 0 ? dims[nd - 1] : 1;
  const float inv_keep = 1.0f / (1.0f - p);
  const uint64_t threshold =
      static_cast<uint64_t>(p * 18446744073709551615.0);  // p * (2^64 - 1)
  const int nt = threads_for(n, kElemGrain);
  parallel_ranges(
      n / w, 1, nt,
      [&](int64_t r0, int64_t r1) {
        dropout_rows(x, y, mask, dims, strides, nd, base, seed, threshold,
                     inv_keep, causal, r0, r1);
      },
      row_load(n / w, nd > 1 ? dims[nd - 2] : 1, causal));
}

void dropout_grad(const float* dy, const uint8_t* mask, float* dx,
                  int64_t rows, int64_t sq, int64_t sk, float p, bool causal) {
  const float inv_keep = 1.0f / (1.0f - p);
  auto apply = [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i)
      dx[i] = dy[i] * static_cast<float>(mask[i]) * inv_keep;
  };
  const int64_t n = rows * sk;
  const int nt = threads_for(n, kElemGrain);
  if (!causal) {
    parallel_ranges(n, 16, nt, apply);
    return;
  }
  parallel_ranges(
      rows, 1, nt,
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t live = live_cols(r, sq, sk, true);
          apply(r * sk, r * sk + live);
          zero_tail(dx + r * sk, nullptr, live, sk);
        }
      },
      row_load(rows, sq, true));
}

}  // namespace mls::kernels
