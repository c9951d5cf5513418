// Overlapped activation recomputation (src/runtime): backward wall-clock
// win from hiding attention-core recompute — and the dW GEMMs —
// inside nonblocking-collective windows, under injected wire latency.
//
// Section 1 runs the real numeric substrate (t=2, selective recompute +
// sequence parallelism) with a fixed injected latency per collective and
// compares three quantities per latency point:
//   * serial backward  — blocking collectives, recompute at its node;
//   * overlap backward — nonblocking collectives, the streamed core's
//     first slice prefetched into their windows (overlap_recompute);
//   * the analytic prediction serial − min(T_comm, T_recompute), i.e.
//     the serial sum T_comm + T_recompute replaced by its max.
// The win grows with latency and saturates at ≈ the hidden work (one
// core slice per layer plus the dW GEMMs) once every window is long
// enough to hide its share.
//
// Section 2 prints the same max(T_comm, T_recompute) term from the
// calibrated A100 cost model for the 22B layer across NVLink-bandwidth
// derates: slower interconnect → bigger overlap win.
//
// Section 3 re-runs the Section-1 overlapped backward with the
// collective-correctness analyzer (ledger validation + hang watchdog)
// switched on and guards its overhead below 2%.
//
// Section 4 does the same for the fault-injection plane: disarmed (the
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
#include "common/table.h"
#include "common/units.h"
#include "model/transformer.h"
#include "perf/layer_time.h"
#include "runtime/overlap.h"

using namespace mls;

namespace {

constexpr int kTp = 2;
constexpr int kLayers = 4;
constexpr int kIters = 9;
constexpr int kPairs = 7;  // off/on pairs per overhead guard

struct Run {
  double bwd_seconds = 0;       // min backward wall-clock (rank 0)
  double prefetch_seconds = 0;  // mean replay time hidden in windows
  double hidden_pred = 0;       // mean Σ_w min(T_window, work_w)
  int64_t collectives = 0;      // backward collectives per iteration
};

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
Run measure(bool overlap, double fixed_latency) {
  const model::ModelConfig cfg = bench_cfg();
  Run run;
  spmd::run(kTp, [&](comm::Comm& c) {
    core::ParallelEnv env = model::make_env(cfg, c);
    env.overlap_recompute = overlap;
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
    double prefetch_sum = 0, hidden_sum = 0;
    int64_t coll = 0;
    for (int i = -1; i < kIters; ++i) {  // iteration -1 is warmup
      env.microbatch = i + 1;
      ag::Var x(x0.clone(), true);
      ag::Var y = x;
      for (auto& l : layers) y = l->forward(y, env);

      c.barrier();
      c.set_injected_comm_latency(0, fixed_latency);
      const auto& st = c.stats();
      const int64_t coll_before = st.all_reduce_count + st.all_gather_count +
                                  st.reduce_scatter_count;
      const auto t0 = std::chrono::steady_clock::now();
      double prefetch = 0, hidden = 0;
      {
        runtime::OverlapGuard guard(overlap);
        ag::backward(y, dy);
        if (auto* s = guard.scheduler()) {
          prefetch = s->stats().prefetch_seconds;
          // Each window hides at most its own duration of the work
          // placed in it.
          for (double w : s->window_work()) {
            hidden += std::min(fixed_latency, w);
          }
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      // All ranks are past their last collective before the reset.
      c.barrier();
      c.set_injected_comm_latency(0, 0);
      if (i < 0) continue;  // discard warmup
      times.push_back(std::chrono::duration<double>(t1 - t0).count());
      prefetch_sum += prefetch;
      hidden_sum += hidden;
      coll = st.all_reduce_count + st.all_gather_count +
             st.reduce_scatter_count - coll_before;
    }
    if (c.rank() == 0) {
      // Min over iterations: the injected sleeps put a hard floor under
      // each run, so the min is the noise-free estimate on a busy host.
      run.bwd_seconds = *std::min_element(times.begin(), times.end());
      run.prefetch_seconds = prefetch_sum / kIters;
      run.hidden_pred = hidden_sum / kIters;
      run.collectives = coll;
    }
  });
  return run;
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

// kPairs off/on pairs of overlapped backwards at `lat` (measure_on
// runs the "on" side), the side that runs first alternating so drift
// favours neither; prints both sides and returns the overhead of the
// on-median over the off-median.
template <typename MeasureOn>
double paired_overhead(const char* off_name, const char* on_name, double lat,
                       MeasureOn&& measure_on) {
  std::vector<double> off, on;
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 1) on.push_back(measure_on().bwd_seconds);
    off.push_back(measure(/*overlap=*/true, lat).bwd_seconds);
    if (i % 2 == 0) on.push_back(measure_on().bwd_seconds);
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
      "=== bench_overlap: recompute hidden in comm windows "
      "(t=%d, %d layers, selective+SP) ===\n\n",
      kTp, kLayers);

  const double latencies_ms[] = {0.0, 1.0, 3.0, 6.0};
  Table t({"injected latency/coll", "serial bwd", "overlap bwd", "win",
           "hidden replay", "predicted overlap"});
  bool all_faster = true;
  double last_err = 0;
  for (const double lat_ms : latencies_ms) {
    const double lat = lat_ms * 1e-3;
    const Run serial = measure(/*overlap=*/false, lat);
    const Run ov = measure(/*overlap=*/true, lat);
    // Per-window max(T_comm, T_work) instead of the serial sum: window w
    // hides min(T_window, work_w), so the predicted overlapped backward
    // is serial − Σ_w min(T_window, work_w).
    const double predicted = serial.bwd_seconds - ov.hidden_pred;
    const double win = serial.bwd_seconds - ov.bwd_seconds;
    if (lat > 0 && ov.bwd_seconds >= serial.bwd_seconds) all_faster = false;
    last_err = std::abs(ov.bwd_seconds - predicted) / predicted;
    t.add_row({fmt(lat_ms, 1) + " ms", format_time_ms(serial.bwd_seconds),
               format_time_ms(ov.bwd_seconds), format_time_ms(win),
               format_time_ms(ov.prefetch_seconds), format_time_ms(predicted)});
  }
  t.print();
  std::printf(
      "\n%s: overlapped backward %s the serial baseline at every nonzero "
      "latency.\n",
      all_faster ? "OK" : "UNEXPECTED",
      all_faster ? "beats" : "does not beat");
  std::printf(
      "At the largest latency the measured overlapped backward is within "
      "%.0f%% of\nthe max(T_comm, T_work) prediction.\n",
      100.0 * last_err);

  // --- Section 2: analytic max(T_comm, T_recompute) term ----------------
  std::printf(
      "\n=== Cost model: 22B layer backward+recompute, selective+SP "
      "===\n\n");
  const auto cfg = model::ModelConfig::gpt_22b();
  Table t2({"nvlink bw derate", "serial bwd+rc", "overlapped bwd+rc", "win"});
  for (const double derate : {1.0, 2.0, 4.0, 8.0}) {
    perf::MachineModel mm = perf::MachineModel::a100();
    mm.nvlink_bus_bw /= derate;
    // Expose the raw backward collectives to the overlap term instead of
    // the calibrated static-overlap fractions, so the two mechanisms are
    // not double-counted.
    mm.bwd_comm_overlap = 0.0;
    mm.sp_regather_overlap = 0.0;
    const auto lt = perf::layer_time(
        cfg, mm, {core::PlanKind::kTensorSequence, core::Recompute::kSelective});
    const double serial = lt.backward_with_recompute(false);
    const double ov = lt.backward_with_recompute(true);
    t2.add_row({"/" + fmt(derate, 0), fmt(serial * 1e3, 2) + " ms",
                fmt(ov * 1e3, 2) + " ms",
                fmt(100.0 * (1.0 - ov / serial), 1) + "%"});
  }
  t2.print();
  std::printf(
      "\nSlower interconnect widens the comm windows, so more of the "
      "recompute\n(and eventually all of it) hides behind them.\n");

  // --- Section 3: analyzer overhead guard -------------------------------
  std::printf(
      "\n=== Analyzer overhead: Section-1 overlapped backward with the\n"
      "collective analyzer (validate + watchdog) on vs off ===\n\n");
  const double guard_lat = 1e-3;
  const double overhead =
      paired_overhead("analyzer off:", "analyzer on:", guard_lat, [&] {
        analysis::Options on;
        on.validate = true;
        on.watchdog = true;
        on.watchdog_sec = 120.0;  // far beyond any real op; never fires here
        analysis::ScopedOptions opts(on);
        return measure(/*overlap=*/true, guard_lat);
      });
  std::printf(
      "%s: the always-on ledger costs %s 2%% of the overlapped backward.\n",
      overhead < 0.02 ? "OK" : "UNEXPECTED",
      overhead < 0.02 ? "under" : "MORE than");

  // --- Section 4: fault-hook overhead guard -----------------------------
  std::printf(
      "\n=== Fault-plane overhead: Section-1 overlapped backward with the\n"
      "fault hooks disarmed vs armed with an inert plan ===\n\n");
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
        return measure(/*overlap=*/true, guard_lat);
      });
  std::printf(
      "%s: the fault plane (even armed) costs %s 1%% of the overlapped "
      "backward,\nso the disarmed single-atomic-load fast path is below "
      "that bound.\n",
      armed_overhead < 0.01 ? "OK" : "UNEXPECTED",
      armed_overhead < 0.01 ? "under" : "MORE than");
  return 0;
}
