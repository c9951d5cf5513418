// PoolAllocator: a per-rank, size-bucketed caching allocator — the
// simulation's analogue of PyTorch's CUDACachingAllocator.
//
// Every Tensor's Storage draws its bytes from here instead of paying a
// malloc/free round-trip (and a redundant memset) per buffer. The
// design follows the CUDA caching allocator, scaled to this substrate:
//
//   * One segment rule. Requests are rounded up to a 512 B granule
//     (kRound); a miss acquires a segment of max(rounded request,
//     Config::min_segment) bytes. The 2 MiB floor is the CUDA
//     allocator's kSmallBuffer: small requests share a segment, large
//     ones get one sized to fit, so physical bytes track demand.
//     Segments are 64-byte aligned (kSegmentAlign), so every pooled
//     buffer starts on a cache line.
//   * Best-fit with split. The free index is ordered by (size, addr);
//     an allocation takes the smallest block that fits and splits off
//     the remainder as a new free block. Adjacent free blocks of a
//     segment coalesce on free, so churn does not shatter the pool.
//   * Cross-thread free queue. A rank's buffers are sometimes released
//     by another thread — a peer rank consuming a mailbox message. Foreign
//     frees are pushed onto a lock-protected pending queue and drained
//     by the owner at its next allocate()/stats()/trim(), so the hot
//     owner-thread path never contends with them structurally.
//   * Arena lifetime is reference-counted. Each Storage holds a
//     shared_ptr to the arena it came from; a rank thread may exit
//     while its tensors are still alive elsewhere (mailbox, collected
//     results), and the arena — with its cached segments — dies only
//     when the last such buffer does.
//
// The physical-bytes axis (bytes actually obtained from the system:
// fp32 simulation storage, 1-byte dropout masks) complements the
// MemoryTracker's logical axis (the paper's fp16/mask byte
// accounting): formulas speak logical, the machine speaks physical,
// and benches print both.
//
// Env knobs (read once, when a thread's arena is first used; see
// core::Env for the test-override mechanism):
//   MLS_ALLOC_POOL=0          bypass caching: plain malloc/free per
//                             buffer (stats still counted, for deltas)
//   MLS_ALLOC_STATS=1         print the stats report at arena teardown
//   MLS_MEM_BUDGET_BYTES      per-rank physical budget; a segment
//                             acquisition that would exceed it first
//                             trims cached segments and retries, then
//                             throws MemoryPressureError (default: -1,
//                             unlimited — the pre-pressure behaviour)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"

namespace mls::memory {

struct AllocStats {
  int64_t allocs = 0;             // allocate() calls
  int64_t frees = 0;              // buffers returned (any thread)
  int64_t pool_hits = 0;          // served from cached blocks
  int64_t pool_misses = 0;        // needed a fresh system allocation
  int64_t splits = 0;             // best-fit blocks split
  int64_t coalesces = 0;          // adjacent free blocks merged
  int64_t cross_thread_frees = 0; // frees drained from the pending queue
  int64_t bytes_in_use = 0;       // handed out, not yet freed
  int64_t in_use_peak = 0;        // high-water mark of bytes_in_use
  int64_t bytes_cached = 0;       // free bytes retained in segments
  int64_t physical_bytes = 0;     // live system allocations (segments)
  int64_t physical_peak = 0;      // high-water mark of physical_bytes
  int64_t segments = 0;           // live system allocations (count)
  int64_t largest_free_block = 0; // fragmentation indicator
  int64_t budget_bytes = -1;      // physical budget (< 0: unlimited)
  int64_t oom_trims = 0;          // budget misses answered by a trim
  int64_t oom_failures = 0;       // MemoryPressureErrors surfaced

  double hit_rate() const {
    const int64_t n = pool_hits + pool_misses;
    return n == 0 ? 0.0 : static_cast<double>(pool_hits) / static_cast<double>(n);
  }
  // Fraction of cached bytes NOT reachable as one contiguous block.
  double fragmentation() const {
    return bytes_cached == 0
               ? 0.0
               : 1.0 - static_cast<double>(largest_free_block) /
                           static_cast<double>(bytes_cached);
  }
  std::string report(const std::string& name = "arena") const;
  // The same counters as a JSON object (one line, no trailing newline),
  // for machine-readable bench output (bench_serve's BENCH_serve.json).
  std::string json() const;
};

// The allocator's structured failure: a segment acquisition exceeded
// the configured physical budget (or an injected `oom` fault fired)
// and trimming the cached segments did not make room. Carries the
// requested size and the arena snapshot at the moment of failure so
// the consumer — recompute governor, serve scheduler, test — can act
// on live/cached/fragmentation numbers instead of parsing a message.
class MemoryPressureError : public Error {
 public:
  MemoryPressureError(const std::string& msg, int64_t requested_bytes,
                      AllocStats snapshot)
      : Error(msg), requested_bytes_(requested_bytes), stats_(snapshot) {}
  int64_t requested_bytes() const { return requested_bytes_; }
  const AllocStats& stats() const { return stats_; }

 private:
  int64_t requested_bytes_;
  AllocStats stats_;
};

class PoolAllocator {
 public:
  struct Config {
    bool enabled = true;
    int64_t min_segment = 2 << 20;  // 2 MiB
    int64_t max_cached = -1;        // < 0: unlimited
    int64_t budget_bytes = -1;      // < 0: unlimited (MLS_MEM_BUDGET_BYTES)
    bool report_at_exit = false;
    static Config from_env();
  };

  explicit PoolAllocator(Config cfg, std::string name = "arena");
  ~PoolAllocator();
  PoolAllocator(const PoolAllocator&) = delete;
  PoolAllocator& operator=(const PoolAllocator&) = delete;

  // The calling thread's own arena (created on first use, config
  // sampled from the environment at that moment).
  static const std::shared_ptr<PoolAllocator>& this_thread();
  // The arena new Storage should draw from: an ArenaGuard override if
  // one is installed, else this_thread().
  static std::shared_ptr<PoolAllocator> current();

  // Uninitialized buffer of at least `bytes` bytes: cache-line aligned
  // when pooled, malloc-aligned under MLS_ALLOC_POOL=0.
  float* allocate(int64_t bytes);
  // Return a buffer. Safe from any thread; foreign threads enqueue
  // onto the pending queue instead of touching pool structures.
  void deallocate(float* p);

  // Drains the pending queue and releases every fully-free segment
  // back to the system (teardown / memory-pressure valve).
  void trim();
  // Drain pending frees and snapshot counters.
  AllocStats stats();
  // Re-arm both high-water marks (physical_peak, in_use_peak) at their
  // current levels, so a bench can measure the peak of one phase in
  // isolation. physical_peak tracks segment acquisition from the
  // system; in_use_peak tracks live-buffer demand — the latter still
  // moves when every request is served from cache.
  void reset_physical_peak();

  const Config& config() const { return cfg_; }
  const std::string& name() const { return name_; }
  bool is_owner_thread() const {
    return std::this_thread::get_id() == owner_;
  }

 private:
  struct Segment;
  struct Block {
    float* ptr = nullptr;
    int64_t size = 0;  // bytes
    bool in_use = false;
    Segment* seg = nullptr;
    Block* prev = nullptr;  // address-ordered neighbours within seg
    Block* next = nullptr;
  };
  struct Segment {
    void* base = nullptr;
    int64_t size = 0;
    Block* first = nullptr;
  };
  struct BlockLess {
    bool operator()(const Block* a, const Block* b) const {
      return a->size != b->size ? a->size < b->size : a->ptr < b->ptr;
    }
  };

  static constexpr int64_t kRound = 512;  // request granule, bytes
  static constexpr size_t kSegmentAlign = 64;  // segment base, bytes
  int64_t rounded(int64_t bytes) const;
  // Budget gate before a segment acquisition of seg_size bytes: trims
  // cached segments and re-checks; throws MemoryPressureError (with the
  // post-trim snapshot) if the budget still cannot cover it. `forced`
  // marks an injected fault: trim, then fail unconditionally.
  void ensure_budget_locked(int64_t seg_size, int64_t requested, bool forced);
  AllocStats snapshot_locked() const;
  float* allocate_locked(int64_t bytes);
  void free_ptr_locked(float* p, bool cross_thread);
  void drain_pending_locked();
  void trim_locked();
  void insert_free_locked(Block* b);
  void erase_free_locked(Block* b);
  Block* split_locked(Block* b, int64_t want);
  void note_physical(int64_t delta);

  const Config cfg_;
  const std::string name_;
  const std::thread::id owner_;

  std::mutex mu_;  // pool structures + stats
  std::set<Block*, BlockLess> free_blocks_;
  std::map<float*, Block*> live_blocks_;          // handed-out blocks
  std::map<float*, int64_t> passthrough_sizes_;   // MLS_ALLOC_POOL=0 mode
  std::vector<std::unique_ptr<Segment>> segments_;
  AllocStats stats_;

  std::mutex pending_mu_;  // cross-thread free queue
  std::vector<float*> pending_;
};

// Installs `arena` as PoolAllocator::current() for the calling thread
// (RAII, nests). The static verifier's recordings wrap each rank in a
// fresh unbudgeted arena this way.
class ArenaGuard {
 public:
  explicit ArenaGuard(std::shared_ptr<PoolAllocator> arena);
  ~ArenaGuard();
  ArenaGuard(const ArenaGuard&) = delete;
  ArenaGuard& operator=(const ArenaGuard&) = delete;

 private:
  std::shared_ptr<PoolAllocator> prev_;
};

}  // namespace mls::memory
