// Overhead guards for the always-compiled observability planes, timed
// on the real numeric substrate's backward (t=2, selective recompute +
// sequence parallelism).
//
// Section 1 switches the collective-correctness analyzer (ledger
// validation + hang watchdog) on and guards its overhead below 2%.
//
// Section 2 does the same for the fault-injection plane: disarmed (the
// production state — every hook is one relaxed atomic load) the
// overhead must stay under 1%; armed with an inert plan it stays cheap
// too (a mutex + event scan per comm op).
//
// Both guards run kPairs alternating off/on measurements and compare
// the per-side medians, printing each side's quartile spread, so one
// noisy run cannot flip the verdict. When either side's spread exceeds
// the guard's budget the medians cannot resolve an overhead that
// small, and the guard prints UNRESOLVED instead of OK / UNEXPECTED.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/ledger.h"
#include "autograd/engine.h"
#include "fault/inject.h"
#include "fault/plan.h"
#include "comm/spmd.h"
#include "common/units.h"
#include "model/transformer.h"

using namespace mls;

namespace {

constexpr int kTp = 2;
constexpr int kLayers = 4;
constexpr int kIters = 9;
constexpr int kPairs = 7;  // off/on pairs per overhead guard

model::ModelConfig bench_cfg() {
  model::ModelConfig cfg = model::ModelConfig::tiny(kTp, kLayers);
  cfg.a = 8;
  cfg.h = 128;
  cfg.s = 64;
  cfg.b = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  return cfg;
}

// One fwd+bwd per iteration over kLayers chained layers; only the
// backward is timed. Returns rank 0's min backward wall-clock.
double measure_backward() {
  const model::ModelConfig cfg = bench_cfg();
  double bwd_seconds = 0;
  spmd::run(kTp, [&](comm::Comm& c) {
    core::ParallelEnv env = model::make_env(cfg, c);
    Rng master(cfg.seed);
    std::vector<std::unique_ptr<model::TransformerLayer>> layers;
    for (int l = 0; l < kLayers; ++l) {
      layers.push_back(
          std::make_unique<model::TransformerLayer>(env, cfg, l, master));
    }
    Rng drng(5);
    const int64_t s_local = cfg.s / kTp;
    Tensor x0 = Tensor::randn(Shape{{s_local, cfg.b, cfg.h}}, drng);
    Tensor dy = Tensor::full(Shape{{s_local, cfg.b, cfg.h}}, 1.f);

    std::vector<double> times;
    for (int i = -1; i < kIters; ++i) {  // iteration -1 is warmup
      env.microbatch = i + 1;
      ag::Var x(x0.clone(), true);
      ag::Var y = x;
      for (auto& l : layers) y = l->forward(y, env);

      c.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      ag::backward(y, dy);
      const auto t1 = std::chrono::steady_clock::now();
      if (i < 0) continue;  // discard warmup
      times.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    if (c.rank() == 0) {
      // Min over iterations: host noise only ever adds time, so the min
      // is the least disturbed estimate on a busy host.
      bwd_seconds = *std::min_element(times.begin(), times.end());
    }
  });
  return bwd_seconds;
}

// Median and quartiles (linear interpolation) of one side's samples.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

// kPairs off/on pairs of backwards (measure_on runs the "on" side),
// the side that runs first alternating so drift favours neither.
// Prints both sides and the verdict on `what` against `budget` (a
// fraction); returns true only for OK.
template <typename MeasureOn>
bool paired_overhead(const char* off_name, const char* on_name,
                     const char* what, double budget, MeasureOn&& measure_on) {
  std::vector<double> off, on;
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 1) on.push_back(measure_on());
    off.push_back(measure_backward());
    if (i % 2 == 0) on.push_back(measure_on());
  }
  const Quartiles qo = quartiles(off), qn = quartiles(on);
  auto spread = [](const Quartiles& q) { return (q.q3 - q.q1) / q.median; };
  auto side = [&](const char* name, const Quartiles& q) {
    std::printf("%-14s median %s   quartiles %s .. %s (spread %.2f%%)\n",
                name, format_time_ms(q.median).c_str(),
                format_time_ms(q.q1).c_str(), format_time_ms(q.q3).c_str(),
                100.0 * spread(q));
  };
  side(off_name, qo);
  side(on_name, qn);
  const double overhead = (qn.median - qo.median) / qo.median;
  std::printf("overhead of the medians over %d pairs: %+.2f%%\n", kPairs,
              100.0 * overhead);
  const double worst = std::max(spread(qo), spread(qn));
  if (worst > budget) {
    std::printf(
        "UNRESOLVED: a %.2f%% quartile spread exceeds the %.0f%% budget, so "
        "these runs cannot tell whether %s costs under it.\n",
        100.0 * worst, 100.0 * budget, what);
    return false;
  }
  const bool ok = overhead < budget;
  std::printf("%s: %s costs %s %.0f%% of the backward.\n",
              ok ? "OK" : "UNEXPECTED", what, ok ? "under" : "MORE than",
              100.0 * budget);
  return ok;
}

}  // namespace

int main() {
  std::printf(
      "=== bench_overhead: observability planes on the backward "
      "(t=%d, %d layers, selective+SP) ===\n",
      kTp, kLayers);

  // --- Section 1: analyzer overhead guard -------------------------------
  std::printf(
      "\n=== Analyzer overhead: backward with the collective analyzer\n"
      "(validate + watchdog) on vs off ===\n\n");
  paired_overhead("analyzer off:", "analyzer on:", "the analyzer",
                  0.02, [] {
                    analysis::Options on;
                    on.validate = true;
                    on.watchdog = true;
                    // Far beyond any real op; never fires here.
                    on.watchdog_sec = 120.0;
                    analysis::ScopedOptions opts(on);
                    return measure_backward();
                  });

  // --- Section 2: fault-hook overhead guard -----------------------------
  std::printf(
      "\n=== Fault-plane overhead: backward with the fault hooks\n"
      "disarmed vs armed with an inert plan ===\n\n");
  // The hooks are compiled into every build, so "hook-free" cannot be
  // measured directly. Instead guard the upper bound: an armed hook does
  // strictly more work than a disarmed one (the same atomic load PLUS a
  // locked plan scan per comm op), so armed-with-a-plan-that-never-fires
  // staying within 1% of disarmed bounds the disarmed cost below 1% too.
  const bool armed_ok = paired_overhead(
      "disarmed:", "armed(inert):", "the fault plane (even armed)", 0.01, [] {
        // A plan that can never fire: a rank and step this bench never
        // reaches. Every comm op still walks the full armed slow path.
        fault::ScopedPlan armed_plan(
            fault::FaultPlan::parse("crash@r99:step=999999"));
        return measure_backward();
      });
  if (armed_ok) {
    std::printf(
        "So the disarmed single-atomic-load fast path is below that "
        "bound.\n");
  }
  return 0;
}
