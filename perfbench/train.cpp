// Training workloads. Each times train::Trainer::step over a fixed
// global batch, checks every step's loss, and checks the recompute rung
// against Recompute::kNone on the same parameters and batch.
//
//   train_sp_selective   t=2, p=1, TP+SP plan, selective recompute,
//                        s=512: the attention core dominates
//   train_pipeline_full  t=2, p=2 (1F1B), TP plan, full recompute,
//                        s=64: MLP GEMMs, all-reduces and p2p dominate
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "bench.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "data/synthetic.h"
#include "memory/activation_model.h"
#include "memory/pool_allocator.h"
#include "pipeline/schedule.h"
#include "probes.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {

namespace {

using namespace mls;

constexpr int kSetupReps = 3;       // set-ups per run; setup_s is their median
constexpr int kDistinctBatches = 4;  // global batches cycled by the steps
constexpr int kMinSteps = 6;

model::ModelConfig config_for(const std::string& workload) {
  model::ModelConfig c;
  c.name = workload;
  c.a = 8;
  c.h = 256;
  c.v = 256;
  c.t = 2;
  c.dropout_p = 0.1f;
  if (workload == "train_sp_selective") {
    c.p = 1;
    c.s = 512;
    c.L = 4;
    c.b = 1;
    c.global_batch = 2;  // 2 microbatches
    c.set_plan(core::PlanKind::kTensorSequence);
    c.recompute = core::Recompute::kSelective;
  } else if (workload == "train_pipeline_full") {
    c.p = 2;
    c.s = 64;
    c.L = 8;
    c.b = 4;
    c.global_batch = 32;  // 8 microbatches
    c.set_plan(core::PlanKind::kTensorParallel);
    c.recompute = core::Recompute::kFull;
  } else {
    throw std::invalid_argument("unknown training workload " + workload);
  }
  c.validate();
  return c;
}

// Idle share of a 1F1B schedule with unit forwards and backwards of
// `bwd` units, by event simulation over pipeline::build_schedule.
double bubble_frac(const model::ModelConfig& cfg, double bwd) {
  const int p = cfg.p;
  const int n = static_cast<int>(cfg.microbatches());
  if (p == 1) return 0;
  std::vector<std::vector<pipeline::Op>> ops;
  for (int r = 0; r < p; ++r) {
    ops.push_back(pipeline::build_schedule(pipeline::Schedule::k1F1B, p, r, n, 1));
  }
  std::vector<std::vector<double>> fwd_done(p, std::vector<double>(n, -1));
  std::vector<std::vector<double>> bwd_done = fwd_done;
  std::vector<size_t> next(p, 0);
  std::vector<double> free_at(p, 0);
  for (bool progress = true; progress;) {
    progress = false;
    for (int r = 0; r < p; ++r) {
      if (next[r] == ops[r].size()) continue;
      const pipeline::Op& op = ops[r][next[r]];
      const bool fwd = op.type == pipeline::OpType::kForward;
      const double dep = fwd ? (r == 0 ? 0 : fwd_done[r - 1][op.microbatch])
                             : (r == p - 1 ? fwd_done[r][op.microbatch]
                                           : bwd_done[r + 1][op.microbatch]);
      if (dep < 0) continue;
      const double end = std::max(free_at[r], dep) + (fwd ? 1.0 : bwd);
      (fwd ? fwd_done : bwd_done)[r][op.microbatch] = end;
      free_at[r] = end;
      ++next[r];
      progress = true;
    }
  }
  const double makespan = *std::max_element(free_at.begin(), free_at.end());
  return 1.0 - static_cast<double>(n) * (1.0 + bwd) / makespan;
}

// FNV-1a over the bit patterns of every gradient this rank holds.
uint64_t grad_hash(pipeline::PipelineEngine& eng) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& p : eng.params()) {
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    for (int64_t i = 0; i < p.numel(); ++i) {
      uint32_t bits;
      std::memcpy(&bits, &g[i], sizeof bits);
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}

struct Iteration {
  float loss;
  uint64_t grads;
  double seconds;
};

struct RankOut {
  std::vector<float> losses;   // per timed step
  std::vector<double> step_s;  // per timed step
  int64_t peak_act = 0;
  int64_t peak_phys = 0;
  std::vector<Iteration> at_rung, at_none;  // recompute pairs
  LayerCounters layer;                      // around the timed steps
  Result kernels;  // tensor.* metrics (traced runs)
};

}  // namespace

Result run_train(const Options& o) {
  const model::ModelConfig cfg = config_for(o.workload);
  const core::Recompute rung = cfg.recompute;
  const int world = cfg.t * cfg.p;

  data::ZipfDataset ds(cfg.v, 1.1, o.seed);
  std::vector<std::vector<data::Batch>> batches;
  for (int i = 0; i < kDistinctBatches; ++i) {
    batches.push_back(data::make_microbatches(ds, cfg));
  }
  std::vector<std::vector<int64_t>> check_tokens, check_targets;
  for (const auto& mb : batches[1]) {
    check_tokens.push_back(mb.tokens);
    check_targets.push_back(mb.targets);
  }

  train::TrainerOptions topts;
  topts.pipeline.schedule = pipeline::Schedule::k1F1B;
  topts.pressure = memory::PressureConfig{};  // plane off

  // Set-up: world, trainer (model + optimizer) and one warm-up step, up
  // to the barrier before the first timed step. `body` then runs on the
  // same world; set-up-only repetitions pass none.
  std::vector<RankOut> outs(static_cast<size_t>(world));
  double warm_step_s = 0;
  const auto run_world = [&](const std::function<void(comm::Comm&, train::Trainer&)>& body) {
    double ready = 0;
    const double t0 = now_s();
    spmd::run(world, [&](comm::Comm& w) {
      Tracer::set_track(w.rank());
      Span root("rank");
      train::Trainer tr(cfg, w, topts);
      {
        Span sp("train.warmup_step");
        tr.step(batches[0]);
        if (w.rank() == 0) warm_step_s = sp.end();
      }
      w.barrier();
      if (w.rank() == 0) ready = now_s();
      if (body) body(w, tr);
    });
    return ready - t0;
  };

  std::vector<double> setup_s;
  for (int i = 1; i < kSetupReps; ++i) setup_s.push_back(run_world(nullptr));

  // Traced runs spend part of the window on the recompute pairs and the
  // probes, so they time fewer steps.
  const double step_budget_s = o.trace ? 0.4 * o.seconds : o.seconds;
  const int pairs = o.trace ? 2 : 1;
  int n_steps = 0;

  setup_s.push_back(run_world([&](comm::Comm& w, train::Trainer& tr) {
    RankOut& out = outs[static_cast<size_t>(w.rank())];
    auto& eng = tr.engine();
    auto& mt = MemoryTracker::instance();

    // Step count from rank 0's warm-up step, agreed by broadcast.
    Tensor n = Tensor::scalar(static_cast<float>(
        std::max<double>(kMinSteps, std::round(step_budget_s / warm_step_s))));
    w.broadcast(n, 0);
    const int steps = static_cast<int>(n.item());
    if (w.rank() == 0) n_steps = steps;

    out.layer.steps = steps;
    out.layer.tp0 = eng.tp_comm().stats();
    out.layer.pp0 = eng.pp_comm().stats();
    out.layer.a0 = mt.allocator_stats();
    {
      Span phase("phase.timed_steps");
      for (int i = 0; i < steps; ++i) {
        Span sp("train.step");
        const train::StepResult r = tr.step(batches[static_cast<size_t>(i + 1) % batches.size()]);
        out.step_s.push_back(sp.end());
        out.losses.push_back(r.loss);
        out.peak_act = std::max(out.peak_act, r.peak_activation_bytes);
      }
    }
    out.layer.tp1 = eng.tp_comm().stats();
    out.layer.pp1 = eng.pp_comm().stats();
    out.layer.a1 = mt.allocator_stats();
    out.peak_phys = mt.physical_peak_bytes();

    // The rung against kNone: same parameters, batch and iteration
    // index, so loss and every gradient must match bit for bit. Pairs
    // alternate which side runs first.
    {
      Span phase("phase.recompute_pairs");
      const int64_t it = tr.iteration();
      const auto iterate = [&](core::Recompute rc, const char* span) {
        eng.set_recompute(rc);
        eng.zero_grads();
        Span sp(span);
        const float loss = eng.run_iteration(check_tokens, check_targets, it).loss;
        const double dt = sp.end();
        return Iteration{loss, grad_hash(eng), dt};
      };
      for (int k = 0; k < pairs; ++k) {
        if (k % 2 == 0) {
          out.at_rung.push_back(iterate(rung, "pipeline.run_iteration.rung"));
          out.at_none.push_back(iterate(core::Recompute::kNone, "pipeline.run_iteration.none"));
        } else {
          out.at_none.push_back(iterate(core::Recompute::kNone, "pipeline.run_iteration.none"));
          out.at_rung.push_back(iterate(rung, "pipeline.run_iteration.rung"));
        }
      }
      eng.set_recompute(rung);
    }

    const memory::AllocStats end = mt.allocator_stats();
    out.layer.in_use_peak = end.in_use_peak;
    out.layer.fragmentation = end.fragmentation();
    if (!o.trace) return;

    const int64_t rows = cfg.s * cfg.b;
    out.layer.comm = probe_comm(eng.tp_comm(), {rows, cfg.h, rows / cfg.t, cfg.h, 0,
                                                rows, cfg.h});
    w.barrier();
    probe_kernels({rows, cfg.h, cfg.t, cfg.b * cfg.a / cfg.t, cfg.s, cfg.s,
                   cfg.head_dim()},
                  o.seed, &out.kernels);
    w.barrier();
  }));

  // ---------------------------------------------------------- checks
  Result res;
  const RankOut& r0 = outs[0];
  for (int i = 0; i < n_steps; ++i) {
    bool ok = true;
    for (const RankOut& r : outs) {
      ok = ok && static_cast<int>(r.losses.size()) == n_steps &&
           std::isfinite(r.losses[i]) &&
           std::memcmp(&r.losses[i], &r0.losses[i], sizeof(float)) == 0;
    }
    res.check(ok, "step " + std::to_string(i) +
                      ": loss not finite or not identical on every rank");
  }
  for (int k = 0; k < pairs; ++k) {
    bool ok = true;
    for (const RankOut& r : outs) {
      const Iteration& a = r.at_rung[k];
      const Iteration& b = r.at_none[k];
      ok = ok && std::memcmp(&a.loss, &b.loss, sizeof(float)) == 0 &&
           a.grads == b.grads;
    }
    res.check(ok, std::string("recompute ") + core::recompute_name(rung) +
                      " differs from none in loss or gradients");
  }

  // ---------------------------------------------------------- metrics
  int64_t peak_act = 0, peak_phys = 0;
  LayerCounters layer = r0.layer;
  layer.pool_misses = 0;
  for (const RankOut& r : outs) {
    peak_act = std::max(peak_act, r.peak_act);
    peak_phys = std::max(peak_phys, r.peak_phys);
    layer.in_use_peak = std::max(layer.in_use_peak, r.layer.in_use_peak);
    layer.pool_misses += r.layer.a1.pool_misses - r.layer.a0.pool_misses;
  }
  const double tokens_per_step = static_cast<double>(cfg.global_batch * cfg.s);
  const double step_p50 = median(r0.step_s);
  const double act_formula = memory::total_activation_bytes_first_stage(
      cfg, memory::technique_of(cfg));

  res.note("steps", n_steps, "count");
  res.note("tokens_per_step", tokens_per_step, "tok");
  res.note("peak_act_bytes", static_cast<double>(peak_act), "B");
  res.note("memory.act_formula_bytes", act_formula, "B");
  res.note("first_loss", r0.losses.front(), "nats");
  res.note("last_loss", r0.losses.back(), "nats");

  if (!o.trace) {
    res.metric("setup_s", median(setup_s), "s");
    res.metric("tokens_per_s", tokens_per_step / step_p50, "tok/s");
    res.metric("step_ms_p50", step_p50 * 1e3, "ms");
    res.metric("peak_phys_bytes", static_cast<double>(peak_phys), "B");
    res.metric("peak_logical_bytes", static_cast<double>(peak_act), "B");
    return res;
  }

  std::vector<double> rung_s, none_s;
  for (int k = 0; k < pairs; ++k) {
    rung_s.push_back(r0.at_rung[k].seconds);
    none_s.push_back(r0.at_none[k].seconds);
  }
  const double iter_s = median(rung_s), none_iter_s = median(none_s);

  res.note("traced.tokens_per_s", tokens_per_step / step_p50, "tok/s");
  res.note("train.step_ms", step_p50 * 1e3, "ms");
  res.note("pipeline.iter_ms", iter_s * 1e3, "ms");
  res.note("train.optim_ms", (step_p50 - iter_s) * 1e3, "ms");
  res.note("autograd.recompute_ms", (iter_s - none_iter_s) * 1e3, "ms");
  res.note("autograd.none_iter_ms", none_iter_s * 1e3, "ms");

  res.metrics = r0.kernels.metrics;
  res.metric("autograd.recompute_overhead_frac", (iter_s - none_iter_s) / none_iter_s, "ratio");
  add_layer_metrics(layer, &res);
  res.metric("pipeline.bubble_frac",
             bubble_frac(cfg, rung == core::Recompute::kFull ? 3.0 : 2.0), "ratio");
  res.metric("memory.act_formula_bytes", act_formula, "B");
  // No serving layer in training.
  res.metric("serve.batch_rows_mean", 0, "rows");
  res.metric("serve.preemptions", 0, "count");
  res.metric("serve.rows_wasted_frac", 0, "ratio");
  res.metric("serve.kv_waste_mean", 0, "ratio");
  res.metric("serve.kv_reserve_failures", 0, "count");
  return res;
}

}  // namespace perfbench
