// Serving workload serve_paged_t2: continuous batching over the paged
// KV cache on a t=2 decode grid, driven by closed loops of zipfian
// clients until a fixed number of requests has completed. Every
// completion must be kCompleted and identical on both ranks, and a
// fixed sample must equal model::generate() for the same request.
#include <stdexcept>

#include "bench.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "memory/pool_allocator.h"
#include "model/generate.h"
#include "probes.h"
#include "serve/traffic.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace mls;

constexpr int kSetupReps = 5;
constexpr uint64_t kWarmupSeed = 0x77617265;
constexpr int kGenerateSamples = 4;
// The serving loop runs in rounds, each a fresh scheduler on its own
// traffic stream; tokens_per_s is the median round's, so one burst of
// host noise moves one round, not the run.
constexpr int kRounds = 5;
// Closed-loop requests per second of --seconds: sizes the fixed request
// count so a run lasts about --seconds on a 4-core x86 host.
constexpr double kRequestsPerSecond = 40;

model::ModelConfig serve_model() {
  model::ModelConfig c;
  c.name = "serve_paged_t2";
  c.a = 8;
  c.h = 512;
  c.s = 128;
  c.L = 4;
  c.v = 256;
  c.b = 1;
  c.global_batch = 1;
  c.t = 2;
  c.validate();
  return c;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig sc;
  sc.block_tokens = 16;
  sc.max_batch = 32;
  sc.kv_budget_tokens = 1024;  // tight: 64 clients preempt each other
  sc.paged = true;
  sc.overlap = false;
  sc.validate();
  return sc;
}

serve::TrafficConfig traffic_config(uint64_t seed, int64_t requests) {
  serve::TrafficConfig tc;
  tc.clients = 64;
  tc.total_requests = requests;
  tc.temperature = 0.7f;
  tc.seed = seed;
  return tc;
}

struct RankOut {
  std::vector<serve::Completion> done;
  std::vector<double> step_s;
  std::vector<double> round_tokens_per_s;  // generated, per loop second
  // Scheduler counters summed over the rounds.
  int64_t steps = 0, rows_processed = 0, tokens_generated = 0, preemptions = 0;
  int64_t kv_reserve_failures = 0;
  double batch_rows_sum = 0, kv_waste_sum = 0;
  int64_t kv_peak = 0;
  int64_t peak_phys = 0;
  std::vector<bool> sample_ok;  // generate() parity per sampled request
  LayerCounters layer;          // around the serving rounds
  Result kernels;
};

bool same_completion(const serve::Completion& a, const serve::Completion& b) {
  return a.request.id == b.request.id && a.tokens == b.tokens && a.reason == b.reason;
}

}  // namespace

Result run_serve(const Options& o) {
  if (o.workload != "serve_paged_t2") {
    throw std::invalid_argument("unknown serving workload " + o.workload);
  }
  const model::ModelConfig cfg = serve_model();
  const serve::ServeConfig sc = serve_config();
  const int64_t requests =
      std::max<int64_t>(64, static_cast<int64_t>(kRequestsPerSecond * o.seconds));
  const int world = cfg.t;

  std::vector<RankOut> outs(static_cast<size_t>(world));
  const auto run_world = [&](bool full) {
    double ready = 0;
    const double t0 = now_s();
    spmd::run(world, [&](comm::Comm& c) {
      Tracer::set_track(c.rank());
      Span root("rank");
      model::GPTModel m(cfg, c);
      {
        // Warm-up: a short closed loop on a fixed traffic stream, so
        // set-up does the same work whatever the seed.
        Span sp("serve.warmup");
        serve::ContinuousBatchScheduler warm(m, sc);
        serve::ClosedLoopTraffic traffic(traffic_config(kWarmupSeed, 8), cfg.v, cfg.s);
        serve::run_closed_loop(warm, traffic);
      }
      c.barrier();
      if (c.rank() == 0) ready = now_s();
      if (!full) return;

      RankOut& out = outs[static_cast<size_t>(c.rank())];
      auto& mt = MemoryTracker::instance();
      out.layer.tp0 = c.stats();
      out.layer.a0 = mt.allocator_stats();
      for (int round = 0; round < kRounds; ++round) {
        Span phase("phase.serving_round");
        serve::ContinuousBatchScheduler sched(m, sc);
        serve::ClosedLoopTraffic traffic(
            traffic_config(o.seed * kRounds + round, requests / kRounds), cfg.v, cfg.s);
        const double loop0 = now_s();
        while (!traffic.done()) {
          if (sched.current_step() > 100 * requests) {
            throw std::runtime_error("serving loop did not converge");
          }
          for (serve::Request& r : traffic.arrivals(sched.current_step())) {
            sched.submit(std::move(r));
          }
          Span sp("serve.step");
          std::vector<serve::Completion> done = sched.step();
          out.step_s.push_back(sp.end());
          for (serve::Completion& comp : done) {
            traffic.on_complete(comp, sched.current_step());
            out.done.push_back(std::move(comp));
          }
        }
        const serve::SchedStats& st = sched.stats();
        out.round_tokens_per_s.push_back(static_cast<double>(st.tokens_generated) /
                                         (now_s() - loop0));
        out.steps += st.steps;
        out.rows_processed += st.rows_processed;
        out.tokens_generated += st.tokens_generated;
        out.preemptions += st.preemptions;
        out.batch_rows_sum += st.batch_rows_sum;
        out.kv_waste_sum += st.kv_waste_sum;
        out.kv_reserve_failures += sched.kv_stats().reserve_failures;
      }
      out.layer.steps = static_cast<double>(out.steps);
      out.layer.tp1 = c.stats();
      out.layer.a1 = mt.allocator_stats();
      out.kv_peak = mt.kv_peak_bytes();
      out.peak_phys = mt.physical_peak_bytes();

      // Parity with the batch-of-one reference path on the first
      // completions (the same on both ranks; generate() is collective).
      {
        Span phase("phase.generate_parity");
        for (const serve::Completion& comp : out.done) {
          if (static_cast<int>(out.sample_ok.size()) == kGenerateSamples) break;
          if (comp.reason != serve::FinishReason::kCompleted) continue;
          model::GenerateOptions g;
          g.max_new_tokens = comp.request.max_new_tokens;
          g.temperature = comp.request.temperature;
          g.seed = comp.request.seed;
          g.stop_tokens = comp.request.stop_tokens;
          out.sample_ok.push_back(model::generate(m, comp.request.prompt, g) == comp.tokens);
        }
      }
      const memory::AllocStats end = mt.allocator_stats();
      out.layer.in_use_peak = end.in_use_peak;
      out.layer.fragmentation = end.fragmentation();
      if (!o.trace) return;

      const int64_t rows = sc.max_batch;
      out.layer.comm = probe_comm(c, {rows, cfg.h, rows, cfg.v / cfg.t, 1, rows, cfg.h});
      c.barrier();
      // Decode attention: one query row per (sequence, head) against a
      // half-window of cached keys.
      probe_kernels({rows, cfg.h, cfg.t, rows * cfg.a / cfg.t, 1, cfg.s / 2,
                     cfg.head_dim()},
                    o.seed, &out.kernels);
      c.barrier();
    });
    return ready - t0;
  };

  std::vector<double> setup_s;
  for (int i = 1; i < kSetupReps; ++i) setup_s.push_back(run_world(false));
  setup_s.push_back(run_world(true));

  // ---------------------------------------------------------- checks
  Result res;
  const RankOut& r0 = outs[0];
  for (const serve::Completion& comp : r0.done) {
    res.check(comp.reason == serve::FinishReason::kCompleted,
              "request " + std::to_string(comp.request.id) + " ended " +
                  serve::finish_reason_name(comp.reason));
  }
  bool ranks_agree = true;
  for (const RankOut& r : outs) {
    ranks_agree = ranks_agree && r.done.size() == r0.done.size();
    for (size_t i = 0; ranks_agree && i < r.done.size(); ++i) {
      ranks_agree = same_completion(r.done[i], r0.done[i]);
    }
  }
  res.check(ranks_agree, "ranks disagree on completions");
  res.check(static_cast<int>(r0.sample_ok.size()) == kGenerateSamples,
            "too few completions for the generate() sample");
  for (size_t i = 0; i < r0.sample_ok.size(); ++i) {
    bool ok = true;
    for (const RankOut& r : outs) ok = ok && r.sample_ok[i];
    res.check(ok, "completion " + std::to_string(i) + " differs from generate()");
  }

  // ---------------------------------------------------------- metrics
  std::vector<double> token_ms, ttft_ms, queue_ms;
  int64_t useful_rows = 0;
  for (const serve::Completion& comp : r0.done) {
    for (double s : comp.token_intervals_s) token_ms.push_back(s * 1e3);
    if (comp.generated() > 0) ttft_ms.push_back(comp.first_token_s * 1e3);
    queue_ms.push_back(comp.queue_s * 1e3);
    useful_rows += static_cast<int64_t>(comp.tokens.size()) - 1;
  }
  int64_t kv_peak = 0, peak_phys = 0;
  LayerCounters layer = r0.layer;
  layer.pool_misses = 0;
  for (const RankOut& r : outs) {
    kv_peak = std::max(kv_peak, r.kv_peak);
    peak_phys = std::max(peak_phys, r.peak_phys);
    layer.in_use_peak = std::max(layer.in_use_peak, r.layer.in_use_peak);
    layer.pool_misses += r.layer.a1.pool_misses - r.layer.a0.pool_misses;
  }
  const double steps = static_cast<double>(r0.steps);
  const double tokens_per_s = median(r0.round_tokens_per_s);
  double token_q = 0, ttft_q = 0, step_q = 0;
  const double token_tail = tail(token_ms, &token_q);
  const double ttft_tail = tail(ttft_ms, &ttft_q);

  res.note("requests", static_cast<double>(r0.done.size()), "count");
  res.note("serve.steps", steps, "count");
  res.note("tokens_generated", static_cast<double>(r0.tokens_generated), "tok");
  res.note("token_ms_p50", median(token_ms), "ms");
  res.note("token_ms_tail", token_tail, "ms");
  res.note("token_ms_tail_quantile", token_q, "q");
  res.note("token_samples", static_cast<double>(token_ms.size()), "count");
  res.note("ttft_ms_p50", median(ttft_ms), "ms");
  res.note("ttft_ms_tail", ttft_tail, "ms");
  res.note("ttft_ms_tail_quantile", ttft_q, "q");
  res.note("kv_peak_bytes", static_cast<double>(kv_peak), "B");

  if (!o.trace) {
    res.metric("setup_s", median(setup_s), "s");
    res.metric("tokens_per_s", tokens_per_s, "tok/s");
    res.metric("step_ms_p50", median(r0.step_s) * 1e3, "ms");
    res.metric("peak_phys_bytes", static_cast<double>(peak_phys), "B");
    res.metric("peak_logical_bytes", static_cast<double>(kv_peak), "B");
    return res;
  }

  res.note("traced.tokens_per_s", tokens_per_s, "tok/s");
  res.note("serve.step_ms_p50", median(r0.step_s) * 1e3, "ms");
  res.note("serve.step_ms_tail", tail(r0.step_s, &step_q) * 1e3, "ms");
  res.note("serve.step_ms_tail_quantile", step_q, "q");
  res.note("serve.queue_ms_p50", median(queue_ms), "ms");

  res.metrics = r0.kernels.metrics;
  res.metric("autograd.recompute_overhead_frac", 0, "ratio");  // no backward
  add_layer_metrics(layer, &res);
  res.metric("pipeline.bubble_frac", 0, "ratio");
  res.metric("memory.act_formula_bytes", 0, "B");  // nothing saved for backward
  res.metric("serve.batch_rows_mean", r0.batch_rows_sum / steps, "rows");
  res.metric("serve.preemptions", static_cast<double>(r0.preemptions), "count");
  res.metric("serve.rows_wasted_frac",
             static_cast<double>(r0.rows_processed - useful_rows) /
                 static_cast<double>(r0.rows_processed),
             "ratio");
  res.metric("serve.kv_waste_mean", r0.kv_waste_sum / steps, "ratio");
  res.metric("serve.kv_reserve_failures", static_cast<double>(r0.kv_reserve_failures), "count");
  return res;
}

}  // namespace perfbench
