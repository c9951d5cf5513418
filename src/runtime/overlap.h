// OverlapScheduler: hides activation-recomputation work inside
// communication windows of the backward pass ("Optimizing Large Model
// Training through Overlapped Activation Recomputation", Chen et al.
// 2024, applied to this repo's SAR/full-recompute modes).
//
// The key observation is that recomputed forward state depends only on
// saved inputs — never on the incoming gradient — so it can be rebuilt
// at any point before its node's backward. The autograd engine
// exploits this: when it reaches a collective-bearing node, it launches
// the collective nonblocking on the rank's comm stream, asks the
// scheduler to run the next pending prefetch on the calling (compute)
// thread, and only then waits on the collective. The prefetch thus runs
// on the compute thread — keeping the thread_local MemoryTracker, RNG
// sites, and GradMode of the rank intact, so numerics and accounting
// are bit-identical to the serial schedule — while the ring collective
// makes progress on the comm stream.
//
// Only nodes that declare themselves prefetchable are eligible: the
// streamed attention core, whose prefetch rebuilds its first (batch,
// head) slice. A full-layer checkpoint's replay issues collectives of
// its own, which must not interleave with an in-flight collective on
// the same communicator.
//
// The scheduler is installed thread-locally with an OverlapGuard (one
// per rank thread); nothing in the forward pass or in ranks without a
// guard changes behaviour. Scopes nest for re-entrant backward
// (checkpoint replay backward inside an enclosing backward).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace mls::runtime {

class OverlapScheduler {
 public:
  struct Stats {
    int64_t comm_windows = 0;    // nonblocking launches the engine made
    int64_t prefetches = 0;      // replays hidden inside a comm window
    int64_t inline_replays = 0;  // replays that ran at their own node
    double prefetch_seconds = 0;  // replay time spent inside windows
    // Other compute placed in windows (e.g. the dW GEMM a node runs
    // between launching its ḡ reduce-scatter and waiting on it).
    double window_compute_seconds = 0;
  };

  // The scheduler installed for the calling thread, or nullptr.
  static OverlapScheduler* current();

  // --- engine interface -------------------------------------------------
  // One scope per backward() invocation; re-entrant backward nests.
  void begin_scope();
  void end_scope();

  // Registers a prefetchable replay in tape (consumption) order. `run`
  // must be idempotent; `key` identifies the node.
  void add_prefetch(const void* key, std::function<void()> run);

  // A nonblocking collective was just launched: run the next pending
  // prefetch on the calling thread while the collective progresses. The
  // lookahead is capped at one node beyond the engine's position, so
  // the recompute memory spike stays one prefetch deep.
  void on_comm_launch();

  // The engine reached `key`'s node; the entry is retired. Returns true
  // if the replay had already been prefetched.
  bool node_reached(const void* key);

  // A node reports compute it performed inside the current window
  // (work it did between launching a collective and waiting on it).
  void note_window_compute(double seconds);

  const Stats& stats() const { return stats_; }
  // Per-window hidden compute (replay + reported work), in launch
  // order; lets a bench predict the win as Σ min(T_window, work_w).
  const std::vector<double>& window_work() const { return window_work_; }
  void reset_stats() {
    stats_ = Stats{};
    window_work_.clear();
  }

 private:
  struct Task {
    const void* key;
    std::function<void()> run;
    bool done = false;
  };
  std::vector<std::deque<Task>> scopes_;
  Stats stats_;
  std::vector<double> window_work_;
};

// RAII thread-local installation. `active=false` makes the guard a
// no-op, so call sites can write `OverlapGuard g(env.overlap_recompute)`.
class OverlapGuard {
 public:
  explicit OverlapGuard(bool active = true);
  ~OverlapGuard();
  OverlapGuard(const OverlapGuard&) = delete;
  OverlapGuard& operator=(const OverlapGuard&) = delete;

  // The installed scheduler (nullptr for an inactive guard).
  OverlapScheduler* scheduler() { return active_ ? &sched_ : nullptr; }

 private:
  bool active_;
  OverlapScheduler sched_;
  OverlapScheduler* prev_ = nullptr;
};

}  // namespace mls::runtime
