// Overhead guards for the always-compiled observability planes, timed
// on the real numeric substrate's backward (t=2, selective recompute +
// sequence parallelism, 1 ms injected latency per collective).
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
// noisy run cannot flip the verdict.
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
// backward runs under the injected latency (and is what gets timed).
// Returns rank 0's min backward wall-clock.
double measure_backward(double fixed_latency) {
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
      c.set_injected_comm_latency(0, fixed_latency);
      const auto t0 = std::chrono::steady_clock::now();
      ag::backward(y, dy);
      const auto t1 = std::chrono::steady_clock::now();
      // All ranks are past their last collective before the reset.
      c.barrier();
      c.set_injected_comm_latency(0, 0);
      if (i < 0) continue;  // discard warmup
      times.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    if (c.rank() == 0) {
      // Min over iterations: the injected sleeps put a hard floor under
      // each run, so the min is the noise-free estimate on a busy host.
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

// kPairs off/on pairs of backwards at `lat` (measure_on runs the "on"
// side), the side that runs first alternating so drift favours
// neither; prints both sides and returns the overhead of the on-median
// over the off-median.
template <typename MeasureOn>
double paired_overhead(const char* off_name, const char* on_name, double lat,
                       MeasureOn&& measure_on) {
  std::vector<double> off, on;
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 1) on.push_back(measure_on());
    off.push_back(measure_backward(lat));
    if (i % 2 == 0) on.push_back(measure_on());
  }
  const Quartiles qo = quartiles(off), qn = quartiles(on);
  auto side = [](const char* name, const Quartiles& q) {
    std::printf("%-14s median %s   quartiles %s .. %s (spread %.2f%%)\n",
                name, format_time_ms(q.median).c_str(),
                format_time_ms(q.q1).c_str(), format_time_ms(q.q3).c_str(),
                100.0 * (q.q3 - q.q1) / q.median);
  };
  side(off_name, qo);
  side(on_name, qn);
  const double overhead = (qn.median - qo.median) / qo.median;
  std::printf("overhead of the medians over %d pairs: %+.2f%%\n", kPairs,
              100.0 * overhead);
  return overhead;
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
  const double guard_lat = 1e-3;
  const double overhead =
      paired_overhead("analyzer off:", "analyzer on:", guard_lat, [&] {
        analysis::Options on;
        on.validate = true;
        on.watchdog = true;
        on.watchdog_sec = 120.0;  // far beyond any real op; never fires here
        analysis::ScopedOptions opts(on);
        return measure_backward(guard_lat);
      });
  std::printf("%s: the always-on ledger costs %s 2%% of the backward.\n",
              overhead < 0.02 ? "OK" : "UNEXPECTED",
              overhead < 0.02 ? "under" : "MORE than");

  // --- Section 2: fault-hook overhead guard -----------------------------
  std::printf(
      "\n=== Fault-plane overhead: backward with the fault hooks\n"
      "disarmed vs armed with an inert plan ===\n\n");
  // The hooks are compiled into every build, so "hook-free" cannot be
  // measured directly. Instead guard the upper bound: an armed hook does
  // strictly more work than a disarmed one (the same atomic load PLUS a
  // locked plan scan per comm op), so armed-with-a-plan-that-never-fires
  // staying within 1% of disarmed bounds the disarmed cost below 1% too.
  const double armed_overhead =
      paired_overhead("disarmed:", "armed(inert):", guard_lat, [&] {
        // A plan that can never fire: a rank and step this bench never
        // reaches. Every comm op still walks the full armed slow path.
        fault::ScopedPlan armed_plan(
            fault::FaultPlan::parse("crash@r99:step=999999"));
        return measure_backward(guard_lat);
      });
  std::printf(
      "%s: the fault plane (even armed) costs %s 1%% of the "
      "backward,\nso the disarmed single-atomic-load fast path is below "
      "that bound.\n",
      armed_overhead < 0.01 ? "OK" : "UNEXPECTED",
      armed_overhead < 0.01 ? "under" : "MORE than");
  return 0;
}
