// Fault injector: the arming point and hook surface of the fault plane
// (DESIGN.md §10).
//
// A FaultPlan is armed process-wide (ScopedPlan in tests, or
// MLS_FAULT_PLAN via maybe_arm_from_env). Hooks are compiled into the
// comm substrate (collective and p2p entry points) and the
// checkpoint store; each is an inline armed() check — one relaxed
// atomic load — so a disarmed binary pays nothing measurable
// (bench_overhead §2 guards < 1%).
//
// Event matching needs the world rank and trainer step of the thread
// executing the op; TrainScope publishes them as thread-locals
// (Trainer::step installs one). Every comm op runs on the rank thread
// that issued it, so it matches that rank's current step.
//
// Semantics per kind:
//  * crash      — throws mls::Error ("injected crash …"); one-shot.
//  * transient  — the op entry fails `fails` times; the hook retries
//                 with bounded exponential backoff (MLS_FAULT_RETRIES /
//                 MLS_FAULT_BACKOFF_MS). If failures outlast the retry
//                 budget the hook throws (hard fault → poison) and the
//                 event is spent, so a recovered run proceeds — the
//                 link flapped, then came back.
//  * stall      — sleeps `sec` before entering the op; one-shot. With
//                 the comm watchdog armed, the peers' stuck rendezvous
//                 trips it and the group poisons with a flight dump.
//  * corrupt    — flips bytes in the matching rank's shard file during
//                 the generation commit (shard durable, manifest not
//                 yet published — so the barriers order the damage
//                 before any rank moves on); one-shot.
//  * oom        — on_oom(site) reports true `fails` times (default 1);
//                 the caller degrades: the pool allocator raises its
//                 structured MemoryPressureError, the paged KV cache
//                 fails one block reservation (the scheduler preempts),
//                 the PressureMonitor forces its sampled level.
#pragma once

#include <atomic>
#include <cstdint>

#include "fault/plan.h"

namespace mls::fault {

namespace detail {
extern std::atomic<bool> g_armed;
void on_step_slow(int world_rank, int64_t step);
void on_comm_slow(const char* what);
void on_io_slow(int world_rank, const char* what);
void on_shard_committed_slow(int world_rank, int64_t gen, const char* path);
bool on_oom_slow(const char* what);
}  // namespace detail

// True while a plan is armed. The inline fast path of every hook.
inline bool armed() {
  return detail::g_armed.load(std::memory_order_acquire);
}

// Arms `plan` for the lifetime of the scope. At most one plan may be
// armed at a time (checked). Firing state (consumed events, transient
// countdowns) lives with the scope, so re-arming the same plan resets it.
class ScopedPlan {
 public:
  explicit ScopedPlan(FaultPlan plan);
  ~ScopedPlan();
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

// Arms FaultPlan::parse(MLS_FAULT_PLAN) once per process if the
// variable is set and nothing is armed. Returns true if a plan is armed
// after the call.
bool maybe_arm_from_env();

// Thread-local (world rank, trainer step) context events match against.
// -1 when absent.
int current_rank();
int64_t current_step();

class TrainScope {
 public:
  TrainScope(int world_rank, int64_t step);
  ~TrainScope();
  TrainScope(const TrainScope&) = delete;
  TrainScope& operator=(const TrainScope&) = delete;

 private:
  int prev_rank_;
  int64_t prev_step_;
};

// ---- hook surface ----------------------------------------------------
// Step boundary (Trainer::step): site-less crash events fire here.
inline void on_step(int world_rank, int64_t step) {
  if (armed()) detail::on_step_slow(world_rank, step);
}
// Comm-op entry (collectives, p2p). `what` is the op name; events also
// match the live SiteGuard tag.
inline void on_comm(const char* what) {
  if (armed()) detail::on_comm_slow(what);
}
// Checkpoint I/O sites (e.g. "ckpt.save" between shard write and
// manifest commit): crash/transient events with a matching site fire.
inline void on_io(int world_rank, const char* what) {
  if (armed()) detail::on_io_slow(world_rank, what);
}
// A rank's shard for generation `gen` is durable on disk (called
// inside the commit, before the manifest barrier); corrupt events
// damage the shard at `path`.
inline void on_shard_committed(int world_rank, int64_t gen, const char* path) {
  if (armed()) detail::on_shard_committed_slow(world_rank, gen, path);
}
// Memory-pressure sites ("alloc", "kv.block", "pressure.soft",
// "pressure.hard"): returns true when a matching oom event fires, and
// the caller simulates the failure. Unlike the hooks above this one
// never throws — every degradation is the caller's to stage.
inline bool on_oom(const char* what) {
  return armed() && detail::on_oom_slow(what);
}

}  // namespace mls::fault
