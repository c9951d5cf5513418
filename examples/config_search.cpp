// Config search: given a model architecture and a GPU budget, jointly
// sweep tensor-parallel size, pipeline depth, interleaving, and
// recomputation technique; keep configurations that fit 80 GB per GPU
// and rank them by estimated MFU.
//
// This automates the reasoning of §5 ("only checkpoint enough
// activations to allow a given model-parallel configuration to train
// given the constraints of device memory") across the whole
// configuration space the paper navigates by hand.
//
// Usage: ./examples/config_search [22b|175b|530b|1t]   (default: 530b)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "core/parallel_plan.h"
#include "memory/activation_model.h"
#include "perf/pipeline_sim.h"

using namespace mls;

namespace {

struct Candidate {
  model::ModelConfig cfg;
  double act_bytes, total_bytes, mfu, seconds;
};

std::string rc_label(const model::ModelConfig& cfg) {
  const bool sp = cfg.plan().sequence_sharded();
  const core::Recompute rc = cfg.recompute;
  std::string base;
  if (cfg.parallel_plan == core::PlanKind::kFoldedTsp) {
    base = "folded TSP";
    if (rc == core::Recompute::kSelective) base += "+selective";
    return base;
  }
  if (sp && rc == core::Recompute::kSelective) return "SP+selective";
  if (sp && rc == core::Recompute::kNone) return "SP only";
  if (!sp && rc == core::Recompute::kNone) return "none";
  if (!sp && rc == core::Recompute::kSelective) return "selective";
  return "full recompute";
}

void search(model::ModelConfig base) {
  const double kDevice = 80.0 * 1024 * 1024 * 1024;
  const auto mm = perf::MachineModel::a100();
  const int64_t gpus = base.num_gpus();

  std::printf("\n### %s: %lld GPUs, searching t x p x m x technique ###\n\n",
              base.name.c_str(), static_cast<long long>(gpus));

  std::vector<Candidate> feasible;
  int explored = 0;
  for (int t : {1, 2, 4, 8}) {
    if (base.a % t != 0 || base.v % t != 0 || base.s % t != 0) continue;
    if (gpus % t != 0) continue;
    const int64_t p = gpus / t;
    if (p < 1 || base.L % p != 0) continue;
    for (int m : {1, 2, 3, 4}) {
      if (m > 1 && (p == 1 || base.L % (p * m) != 0 ||
                    base.microbatches() % p != 0)) {
        continue;
      }
      struct Tech {
        core::PlanKind plan;
        core::Recompute rc;
      };
      constexpr auto kTp = core::PlanKind::kTensorParallel;
      constexpr auto kTpSp = core::PlanKind::kTensorSequence;
      constexpr auto kFolded = core::PlanKind::kFoldedTsp;
      for (const Tech& tech : {Tech{kTp, core::Recompute::kNone},
                               Tech{kTpSp, core::Recompute::kNone},
                               Tech{kTp, core::Recompute::kSelective},
                               Tech{kTpSp, core::Recompute::kSelective},
                               Tech{kTp, core::Recompute::kFull},
                               Tech{kFolded, core::Recompute::kNone},
                               Tech{kFolded, core::Recompute::kSelective}}) {
        model::ModelConfig cfg = base;
        cfg.t = t;
        cfg.p = static_cast<int>(p);
        cfg.interleave_m = m;
        cfg.set_plan(tech.plan);
        cfg.recompute = tech.rc;
        ++explored;
        const double act = memory::total_activation_bytes_first_stage(
            cfg, memory::technique_of(cfg));
        const double state = memory::model_state_bytes_per_rank(cfg).total();
        if (state + act > kDevice) continue;
        const auto e2e = perf::end_to_end(
            cfg, mm, cfg.plan().sequence_sharded(), tech.rc);
        feasible.push_back(
            {cfg, act, state + act, e2e.mfu, e2e.iteration_seconds});
      }
    }
  }

  std::sort(feasible.begin(), feasible.end(),
            [](const Candidate& a, const Candidate& b) { return a.mfu > b.mfu; });

  std::printf("explored %d configurations, %zu fit in memory; top 8 by MFU:\n\n",
              explored, feasible.size());
  Table tab({"t", "p", "m", "technique", "memory/GPU", "iteration", "MFU"});
  for (size_t i = 0; i < std::min<size_t>(8, feasible.size()); ++i) {
    const auto& c = feasible[i];
    tab.add_row({std::to_string(c.cfg.t), std::to_string(c.cfg.p),
                 std::to_string(c.cfg.interleave_m), rc_label(c.cfg),
                 format_bytes(c.total_bytes), fmt(c.seconds, 2) + " s",
                 fmt(100 * c.mfu, 1) + "%"});
  }
  tab.print();
  if (!feasible.empty()) {
    const auto& c = feasible.front();
    std::printf("\n-> best: t=%d p=%d m=%d %s — %s/GPU, %.1f%% MFU\n",
                c.cfg.t, c.cfg.p, c.cfg.interleave_m, rc_label(c.cfg).c_str(),
                format_bytes(c.total_bytes).c_str(), 100 * c.mfu);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Parallel-configuration search (80 GB A100s) ===\n");
  model::ModelConfig cfg = model::ModelConfig::gpt_530b();
  if (argc > 1) {
    if (std::strcmp(argv[1], "22b") == 0) cfg = model::ModelConfig::gpt_22b();
    else if (std::strcmp(argv[1], "175b") == 0) cfg = model::ModelConfig::gpt_175b();
    else if (std::strcmp(argv[1], "530b") == 0) cfg = model::ModelConfig::gpt_530b();
    else if (std::strcmp(argv[1], "1t") == 0) cfg = model::ModelConfig::gpt_1t();
    else {
      std::fprintf(stderr, "unknown model '%s'\n", argv[1]);
      return 1;
    }
  }
  search(cfg);
  return 0;
}
