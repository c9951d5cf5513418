// Recompute-escalation overhead: what surviving memory pressure costs
// (DESIGN.md §14, EXPERIMENTS.md "pressure" row).
//
// Runs the same t=2/p=2 training twice — once unpressured, once with
// injected soft pressure that drives the governor up the paper's
// none -> selective -> full ladder and back down — and reports the
// wall-clock overhead of the escalated steps plus the per-rung
// activation peaks. The acceptance property rides along: the two runs'
// losses must be bit-identical (checkpoint replay changes memory and
// time, never math).
//
// Modes:
//   bench_pressure           full run (8 steps), table on stdout
//   bench_pressure --smoke   fast CI gate (4 steps); exits 1 on any
//                            loss drift or a ladder that never moved
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/spmd.h"
#include "core/env.h"
#include "fault/inject.h"
#include "fault/plan.h"
#include "train/trainer.h"

using namespace mls;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

model::ModelConfig grid_config() {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kNone;
  cfg.global_batch = 2 * cfg.b;
  return cfg;
}

struct RunOut {
  std::vector<float> losses;
  std::vector<core::Recompute> recompute;
  std::vector<int64_t> peak_bytes;  // per-step activation peaks
  double wall_s = 0;
};

RunOut run_training(const model::ModelConfig& cfg, int64_t budget_bytes,
                    const std::vector<std::vector<data::Batch>>& steps) {
  const int n = cfg.t * cfg.p * cfg.d;
  RunOut out;
  const double t0 = now_s();
  spmd::run(n, [&](comm::Comm& world) {
    train::TrainerOptions topts;
    topts.lr = 1e-3f;
    topts.pressure.budget_bytes = budget_bytes;
    train::Trainer t(cfg, world, topts);
    std::vector<float> losses;
    std::vector<core::Recompute> rcs;
    std::vector<int64_t> peaks;
    for (const auto& mb : steps) {
      const auto r = t.step(mb);
      losses.push_back(r.loss);
      rcs.push_back(r.recompute);
      peaks.push_back(r.peak_activation_bytes);
    }
    if (world.rank() == 0) {
      out.losses = std::move(losses);
      out.recompute = std::move(rcs);
      out.peak_bytes = std::move(peaks);
    }
  });
  out.wall_s = now_s() - t0;
  return out;
}

int run(int total_steps, bool smoke) {
  const model::ModelConfig cfg = grid_config();
  data::MarkovDataset ds(cfg.v, 1.0, 5);
  std::vector<std::vector<data::Batch>> steps;
  for (int i = 0; i < total_steps; ++i) {
    steps.push_back(data::make_microbatches(ds, cfg));
  }

  const RunOut base = run_training(cfg, /*budget=*/-1, steps);

  // Rank 0 reads soft pressure for the first half of the run: the
  // governor climbs to full recompute, then hysteresis walks it back
  // once the samples go calm.
  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kOom,
                         .rank = 0,
                         .site = "pressure.soft",
                         .fails = total_steps / 2});
  RunOut pressured;
  {
    fault::ScopedPlan armed(plan);
    pressured = run_training(cfg, /*budget=*/int64_t{1} << 40, steps);
  }

  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    failures += !ok;
  };

  std::printf("escalation overhead (t=%d p=%lld, %d steps, soft pressure on "
              "rank 0 for %d steps)\n",
              cfg.t, static_cast<long long>(cfg.p), total_steps,
              total_steps / 2);
  std::printf("  %-6s %-11s %-14s %-14s %s\n", "step", "recompute",
              "base peak B", "pressured B", "loss drift");
  int escalated_steps = 0;
  float max_drift = 0.0f;
  for (size_t i = 0; i < base.losses.size(); ++i) {
    const float drift = pressured.losses[i] - base.losses[i];
    max_drift = std::max(max_drift, std::abs(drift));
    escalated_steps += pressured.recompute[i] != cfg.recompute;
    std::printf("  %-6zu %-11s %-14lld %-14lld %g\n", i,
                core::recompute_name(pressured.recompute[i]),
                static_cast<long long>(base.peak_bytes[i]),
                static_cast<long long>(pressured.peak_bytes[i]), drift);
  }
  const double overhead =
      base.wall_s > 0 ? (pressured.wall_s / base.wall_s - 1.0) * 100.0 : 0.0;
  std::printf("  wall: base %.3f s, pressured %.3f s (%+.1f%% — includes the "
              "per-step pressure all_reduce)\n",
              base.wall_s, pressured.wall_s, overhead);

  expect(max_drift == 0.0f, "losses bit-identical across escalation");
  expect(escalated_steps > 0, "the governor escalated at least one step");
  bool peak_dropped = false;
  for (size_t i = 0; i < base.losses.size(); ++i) {
    peak_dropped |= pressured.recompute[i] == core::Recompute::kFull &&
                    pressured.peak_bytes[i] < base.peak_bytes[i];
  }
  expect(peak_dropped, "full-recompute steps peak below the baseline");
  std::printf("bench_pressure%s: %s\n", smoke ? " --smoke" : "",
              failures ? "FAILED" : "passed");
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  return run(smoke ? 4 : 8, smoke);
}
