#include "memory/pressure.h"

#include "common/check.h"
#include "fault/inject.h"

namespace mls::memory {

const char* pressure_level_name(PressureLevel l) {
  switch (l) {
    case PressureLevel::kLow: return "low";
    case PressureLevel::kNone: return "none";
    case PressureLevel::kSoft: return "soft";
    case PressureLevel::kHard: return "hard";
  }
  return "?";
}

PressureConfig PressureConfig::from_env() {
  PressureConfig cfg;
  cfg.budget_bytes = core::Env::integer("MLS_MEM_BUDGET_BYTES", cfg.budget_bytes);
  cfg.soft_pct = core::Env::real("MLS_MEM_SOFT_PCT", cfg.soft_pct);
  cfg.hard_pct = core::Env::real("MLS_MEM_HARD_PCT", cfg.hard_pct);
  cfg.low_pct = core::Env::real("MLS_MEM_LOW_PCT", cfg.low_pct);
  cfg.calm_steps =
      static_cast<int>(core::Env::integer("MLS_MEM_CALM_STEPS", cfg.calm_steps));
  if (cfg.enabled()) cfg.validate();
  return cfg;
}

void PressureConfig::validate() const {
  MLS_CHECK_GT(budget_bytes, 0);
  MLS_CHECK(low_pct > 0 && low_pct < soft_pct && soft_pct < hard_pct &&
            hard_pct <= 1.0)
      << "watermarks must order 0 < low < soft < hard <= 1 (low=" << low_pct
      << " soft=" << soft_pct << " hard=" << hard_pct << ")";
  MLS_CHECK_GE(calm_steps, 1);
}

PressureMonitor::PressureMonitor(PressureConfig cfg,
                                 std::shared_ptr<PoolAllocator> arena)
    : cfg_(cfg), arena_(std::move(arena)) {
  cfg_.validate();
}

PressureLevel PressureMonitor::sample() {
  PressureLevel level;
  // Chaos overrides come first: a forced level must not depend on what
  // the arena happens to hold, or the same plan would classify
  // differently across runs.
  if (fault::on_oom("pressure.hard")) {
    level = PressureLevel::kHard;
  } else if (fault::on_oom("pressure.soft")) {
    level = PressureLevel::kSoft;
  } else {
    const auto& arena = arena_ ? arena_ : PoolAllocator::current();
    const int64_t physical = arena->stats().physical_bytes;
    if (physical >= cfg_.hard_bytes()) {
      level = PressureLevel::kHard;
    } else if (physical >= cfg_.soft_bytes()) {
      level = PressureLevel::kSoft;
    } else if (physical < cfg_.low_bytes()) {
      level = PressureLevel::kLow;
    } else {
      level = PressureLevel::kNone;
    }
  }
  // Edge-triggered counters: one event per excursion above a
  // watermark, not one per step spent there.
  if (level == PressureLevel::kHard && last_ != PressureLevel::kHard) {
    ++hard_events_;
  }
  if (level >= PressureLevel::kSoft && last_ < PressureLevel::kSoft) {
    ++soft_events_;
  }
  last_ = level;
  return level;
}

RecomputeGovernor::RecomputeGovernor(PressureConfig cfg, core::Recompute floor)
    : cfg_(cfg), floor_(floor), current_(floor) {
  cfg_.validate();
}

namespace {

core::Recompute rung_up(core::Recompute r) {
  switch (r) {
    case core::Recompute::kNone: return core::Recompute::kSelective;
    case core::Recompute::kSelective: return core::Recompute::kFull;
    case core::Recompute::kFull: return core::Recompute::kFull;
  }
  return core::Recompute::kFull;
}

core::Recompute rung_down(core::Recompute r) {
  switch (r) {
    case core::Recompute::kFull: return core::Recompute::kSelective;
    case core::Recompute::kSelective: return core::Recompute::kNone;
    case core::Recompute::kNone: return core::Recompute::kNone;
  }
  return core::Recompute::kNone;
}

}  // namespace

core::Recompute RecomputeGovernor::on_level(PressureLevel agreed) {
  ++stats_.steps;
  switch (agreed) {
    case PressureLevel::kHard:
      ++stats_.hard_trips;
      calm_ = 0;
      if (current_ != core::Recompute::kFull) {
        current_ = core::Recompute::kFull;
        ++stats_.escalations;
      }
      break;
    case PressureLevel::kSoft: {
      ++stats_.soft_trips;
      calm_ = 0;
      const core::Recompute next = rung_up(current_);
      if (next != current_) {
        current_ = next;
        ++stats_.escalations;
      }
      break;
    }
    case PressureLevel::kNone:
      // Holding pattern: not calm enough to descend, not hot enough to
      // climb — the hysteresis band.
      calm_ = 0;
      break;
    case PressureLevel::kLow:
      if (current_ != floor_ && ++calm_ >= cfg_.calm_steps) {
        calm_ = 0;
        const core::Recompute next = rung_down(current_);
        if (static_cast<int>(next) >= static_cast<int>(floor_)) {
          current_ = next;
          ++stats_.deescalations;
        }
      }
      break;
  }
  return current_;
}

}  // namespace mls::memory
