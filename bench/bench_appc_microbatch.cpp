// Appendix C: microbatch-level activation recomputation — store all
// activations for as many in-flight microbatches as device memory
// allows, checkpoint the rest.
//
// Part 1: analytic MFU uplift for the 175B and 530B models (paper:
// +0.7% and +0.4% over SP+selective). Each pipeline stage S holds
// max(0, p−S) microbatches; the stage's free memory (80 GB − model
// state − boundary buffers) lets k of them skip recomputation, saving
// k/w of the per-layer recompute time on that stage's backward passes.
// The critical path is governed by the stage with the *least* headroom
// (stage 0).
//
// Part 2: runtime demonstration on the numeric substrate — a real
// pipeline under increasing budgets stores more microbatches fully,
// with identical losses throughout.
#include <algorithm>
#include <cstdio>

#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/table.h"
#include "common/units.h"
#include "data/synthetic.h"
#include "perf/flops.h"
#include "perf/pipeline_sim.h"
#include "pipeline/executor.h"

using namespace mls;

namespace {

// MFU with microbatch-level recomputation applied on top of
// SP+selective, per the stage-0-governed model described above.
double mfu_with_mb_recompute(const model::ModelConfig& cfg,
                             const perf::MachineModel& mm) {
  const auto base =
      perf::estimate_iteration_time(cfg, mm, true, core::Recompute::kSelective);

  const double device = 80.0 * 1024 * 1024 * 1024;
  const double state = memory::model_state_bytes_per_rank(cfg).total();
  // Stage 0 under 1F1B holds w = p microbatches of checkpointed
  // activations; free memory beyond that lets k of them store all.
  model::ModelConfig stored = cfg;
  stored.recompute = core::Recompute::kNone;
  stored.set_plan(core::PlanKind::kTensorSequence);
  model::ModelConfig ckpt = cfg;
  ckpt.recompute = core::Recompute::kSelective;
  ckpt.set_plan(core::PlanKind::kTensorSequence);
  const double per_mb_ckpt =
      memory::act_bytes_per_layer(ckpt, memory::technique_of(ckpt)) *
      static_cast<double>(cfg.layers_per_stage()) *
      memory::interleave_factor(cfg);
  const double per_mb_stored =
      memory::act_bytes_per_layer(stored, memory::technique_of(stored)) *
      static_cast<double>(cfg.layers_per_stage()) *
      memory::interleave_factor(cfg);
  const double w = std::min<double>(cfg.p, static_cast<double>(cfg.microbatches()));
  const double free_bytes = device - state - w * per_mb_ckpt;
  const double k = std::clamp(
      free_bytes / std::max(1.0, per_mb_stored - per_mb_ckpt), 0.0, w);

  // Fraction of microbatches that skip the selective recompute.
  const double frac = k / w;
  const auto lt = perf::layer_time(cfg, mm, true, core::Recompute::kSelective);
  const double saved = frac * static_cast<double>(cfg.microbatches()) *
                       (static_cast<double>(cfg.L) / cfg.p) * lt.recompute *
                       memory::interleave_factor(cfg);
  const double new_seconds = base.seconds - saved;
  return perf::mfu(cfg, new_seconds, mm.peak_flops);
}

}  // namespace

int main() {
  std::printf(
      "=== Appendix C: microbatch-level activation recomputation ===\n\n");
  const auto mm = perf::MachineModel::a100();

  {
    // Note: this closed form assumes the recompute saved on stage 0 is
    // entirely on the critical path, so it is an *upper bound*; the
    // paper's measured uplift (+0.7/+0.4) also absorbs memory
    // fragmentation and scheduling effects it cites in §7.
    Table t({"model", "MFU (SP+selective)",
             "MFU (+ mb-level recompute, upper bound)", "uplift (paper)"});
    struct Row {
      model::ModelConfig cfg;
      double paper_uplift;
    };
    const Row rows[] = {{model::ModelConfig::gpt_175b(), 0.7},
                        {model::ModelConfig::gpt_530b(), 0.4}};
    for (const auto& r : rows) {
      const auto base =
          perf::end_to_end(r.cfg, mm, true, core::Recompute::kSelective);
      const double with_mb = mfu_with_mb_recompute(r.cfg, mm);
      t.add_row({r.cfg.name, fmt(100 * base.mfu, 1) + "%",
                 fmt(100 * with_mb, 1) + "%",
                 "+" + fmt(100 * (with_mb - base.mfu), 1) + "% (+" +
                     fmt(r.paper_uplift, 1) + "%)"});
    }
    t.print();
    std::printf(
        "\nPaper: \"increases the model FLOPs utilization of the 175B and "
        "530B\nparameter models to 52.3%% (+0.7%%) and 56.4%% (+0.4%%)\" — "
        "\"the gain is\nsmall because the selective recomputation overhead "
        "is as small as ~2%%\".\n");
  }

  // ------------------------------------------------------------------
  std::printf("\n--- Runtime demonstration (numeric pipeline, p=2) ---\n");
  model::ModelConfig cfg = model::ModelConfig::tiny(1, 4);
  cfg.p = 2;
  cfg.global_batch = 4 * cfg.b;
  cfg.recompute = core::Recompute::kFull;  // fallback when over budget
  data::UniformDataset ds(cfg.v, 10);
  std::vector<std::vector<int64_t>> tokens, targets;
  for (auto& mb : data::make_microbatches(ds, cfg)) {
    tokens.push_back(mb.tokens);
    targets.push_back(mb.targets);
  }

  Table t({"store budget", "mb stored full", "mb checkpointed", "peak bytes",
           "loss"});
  for (int64_t budget : {int64_t{0}, int64_t{100} * 1024, int64_t{200} * 1024,
                         int64_t{1} << 40}) {
    float loss = 0;
    int64_t stored = 0, ckpt = 0, peak = 0;
    spmd::run(cfg.p, [&](comm::Comm& world) {
      MemoryTracker::instance().reset();
      pipeline::PipelineOptions opts;
      opts.microbatch_store_budget = budget;
      pipeline::PipelineEngine engine(cfg, world, opts);
      auto stats = engine.run_iteration(tokens, targets, 0);
      if (world.rank() == 0) {
        loss = stats.loss;
        stored = stats.microbatches_stored_full;
        ckpt = stats.microbatches_checkpointed;
        peak = stats.peak_activation_bytes;
      }
    });
    t.add_row({budget == (int64_t{1} << 40) ? "unlimited"
                                            : format_bytes(static_cast<double>(budget)),
               std::to_string(stored), std::to_string(ckpt),
               format_bytes(static_cast<double>(peak)), fmt(loss, 5)});
  }
  t.print();
  std::printf(
      "(Losses are identical across budgets: microbatch-level recomputation\n"
      "changes only when activations are recomputed, never the math.)\n");
  return 0;
}
