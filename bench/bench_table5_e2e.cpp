// Table 5: end-to-end iteration time, throughput increase, and
// MFU/HFU for the four Table 3 configurations — full recomputation
// (without SP) vs present work (SP + selective recomputation) — plus
// the §6.3 data-parallel scaling note (530B at 8-way DP on 2240 GPUs).
//
// Iteration times come from an event-driven simulation of the actual
// pipeline schedules (1F1B / interleaved) over the calibrated per-layer
// cost model.
#include <cstdio>

#include "common/table.h"
#include "perf/flops.h"
#include "perf/pipeline_sim.h"

using namespace mls;

int main() {
  std::printf("=== Table 5: end-to-end iteration time ===\n\n");
  const auto mm = perf::MachineModel::a100();
  constexpr memory::Technique kFull{core::PlanKind::kTensorParallel,
                                    core::Recompute::kFull};
  constexpr memory::Technique kPresent{core::PlanKind::kTensorSequence,
                                       core::Recompute::kSelective};

  struct PaperRow {
    model::ModelConfig cfg;
    double full_s, present_s, incr, mfu, hfu;
  };
  const PaperRow rows[] = {
      {model::ModelConfig::gpt_22b(), 1.42, 1.10, 29.0, 41.5, 43.7},
      {model::ModelConfig::gpt_175b(), 18.13, 13.75, 31.8, 51.4, 52.8},
      {model::ModelConfig::gpt_530b(), 49.05, 37.83, 29.7, 56.0, 57.0},
      {model::ModelConfig::gpt_1t(), 94.42, 71.49, 32.1, 56.3, 57.0},
  };

  Table t({"model", "GPUs", "full recompute s (paper)",
           "present work s (paper)", "throughput incr (paper)",
           "MFU (paper)", "HFU (paper)"});
  for (const auto& r : rows) {
    const auto full = perf::end_to_end(r.cfg, mm, kFull);
    const auto present = perf::end_to_end(r.cfg, mm, kPresent);
    const double incr =
        100.0 * (full.iteration_seconds / present.iteration_seconds - 1.0);
    t.add_row(
        {r.cfg.name, std::to_string(r.cfg.num_gpus()),
         fmt(full.iteration_seconds, 2) + " (" + fmt(r.full_s, 2) + ")",
         fmt(present.iteration_seconds, 2) + " (" + fmt(r.present_s, 2) + ")",
         fmt(incr, 1) + "% (" + fmt(r.incr, 1) + "%)",
         fmt(100 * present.mfu, 1) + "% (" + fmt(r.mfu, 1) + "%)",
         fmt(100 * present.hfu, 1) + "% (" + fmt(r.hfu, 1) + "%)"});
  }
  t.print();

  // §6.3 data-parallel note.
  const auto cfg530 = model::ModelConfig::gpt_530b();
  const auto present530 = perf::end_to_end(cfg530, mm, kPresent);
  const double dp_s =
      perf::dp_iteration_seconds(cfg530, mm, present530.iteration_seconds, 8);
  std::printf(
      "\n§6.3 DP note — 530B scaled to 8-way data parallelism (2240 GPUs):\n"
      "  iteration %.2f s -> %.2f s (paper: 37.83 -> 39.15)\n"
      "  MFU %.1f%% -> %.1f%% (paper: 56.0%% -> 54.2%%)\n",
      present530.iteration_seconds, dp_s, 100 * present530.mfu,
      100 * perf::mfu(cfg530, dp_s, mm.peak_flops));

  std::printf(
      "\nPaper: \"the techniques presented in the paper provide between\n"
      "29.0%% and 32.1%% improvement in the throughput\".\n");
  return 0;
}
