// Memory-pressure plane (DESIGN.md §14): watermarks over the PR-3
// pooled arena, and the recompute-escalation governor that turns the
// paper's static none → selective → full ladder into an online
// graceful-degradation mechanism.
//
// Three pieces:
//
//   * PressureConfig — the MLS_MEM_* knobs. A budget (absolute bytes)
//     plus soft/hard/low watermarks as fractions of it. Disabled (all
//     consumers inert, zero extra collectives) unless
//     MLS_MEM_BUDGET_BYTES is set.
//   * PressureMonitor — samples the calling rank's arena and classifies
//     physical bytes against the watermarks:
//       kLow  < low_pct ≤ kNone < soft_pct ≤ kSoft < hard_pct ≤ kHard.
//     Injected `oom` faults at sites "pressure.soft"/"pressure.hard"
//     force the level, so every escalation path is deterministically
//     chaos-testable without a real byte squeeze. Edge transitions into
//     soft/hard are counted in the MemoryTracker.
//   * RecomputeGovernor — the per-rank ladder state machine. Feed it
//     the *agreed* level (all_reduce-Max over the world, see
//     Trainer::step) once per step: a soft trip climbs one rung, a hard
//     trip jumps to kFull, and `calm_steps` consecutive kLow samples
//     step back down (hysteresis — kNone holds). The configured
//     Recompute is the floor; the governor never descends below what
//     the user asked for.
//
// Changing Recompute between steps changes memory and time, never math:
// checkpoint replay is bit-exact (dropout is a pure function of
// (seed, site, microbatch)), so a pressured run's losses are
// bit-identical to the unpressured run — tests assert it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/env.h"
#include "memory/pool_allocator.h"

namespace mls::memory {

// Ordered by severity so a world-wide agreement is a Max reduction:
// any rank soft ⇒ the world escalates; de-escalation needs every rank
// low.
enum class PressureLevel : int { kLow = 0, kNone = 1, kSoft = 2, kHard = 3 };

const char* pressure_level_name(PressureLevel l);

struct PressureConfig {
  int64_t budget_bytes = -1;  // MLS_MEM_BUDGET_BYTES; < 0 disables the plane
  double soft_pct = 0.80;     // MLS_MEM_SOFT_PCT: escalate one rung
  double hard_pct = 0.95;     // MLS_MEM_HARD_PCT: jump to full recompute
  double low_pct = 0.60;      // MLS_MEM_LOW_PCT: candidate for de-escalation
  int calm_steps = 2;         // MLS_MEM_CALM_STEPS: consecutive low samples
                              // required before stepping down one rung

  bool enabled() const { return budget_bytes > 0; }
  int64_t soft_bytes() const {
    return static_cast<int64_t>(static_cast<double>(budget_bytes) * soft_pct);
  }
  int64_t hard_bytes() const {
    return static_cast<int64_t>(static_cast<double>(budget_bytes) * hard_pct);
  }
  int64_t low_bytes() const {
    return static_cast<int64_t>(static_cast<double>(budget_bytes) * low_pct);
  }
  static PressureConfig from_env();
  void validate() const;
};

class PressureMonitor {
 public:
  // `arena` defaults to the calling thread's rank arena at each
  // sample() (the normal per-rank case); pass one explicitly in tests.
  explicit PressureMonitor(PressureConfig cfg,
                           std::shared_ptr<PoolAllocator> arena = nullptr);

  // Classifies the arena's current physical bytes. Injected oom faults
  // at "pressure.hard" / "pressure.soft" override upward.
  PressureLevel sample();

  PressureLevel last() const { return last_; }
  const PressureConfig& config() const { return cfg_; }

 private:
  PressureConfig cfg_;
  std::shared_ptr<PoolAllocator> arena_;
  PressureLevel last_ = PressureLevel::kNone;
};

class RecomputeGovernor {
 public:
  struct Stats {
    int64_t steps = 0;          // levels fed
    int64_t soft_trips = 0;     // agreed soft samples
    int64_t hard_trips = 0;     // agreed hard samples
    int64_t escalations = 0;    // rung climbs applied
    int64_t deescalations = 0;  // rung descents applied
  };

  // `floor` is the configured Recompute — the ladder's lowest rung.
  RecomputeGovernor(PressureConfig cfg, core::Recompute floor);

  // One step's agreed level in, the rung to run the next chunk with
  // out. Pure state machine: every rank feeding the same level
  // sequence holds the same rung — the lockstep invariant.
  core::Recompute on_level(PressureLevel agreed);

  core::Recompute current() const { return current_; }
  core::Recompute floor() const { return floor_; }
  const Stats& stats() const { return stats_; }

 private:
  PressureConfig cfg_;
  core::Recompute floor_;
  core::Recompute current_;
  int calm_ = 0;  // consecutive kLow samples since the last change
  Stats stats_;
};

}  // namespace mls::memory
