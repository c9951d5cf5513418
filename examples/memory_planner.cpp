// Memory planner: given one of the paper's model configurations (or a
// custom one via flags), sweep the recomputation technique and report
// what fits in an 80 GB A100 and at what estimated throughput — the
// decision the paper's §5 describes ("it is ideal to only checkpoint
// enough activations to allow a given model-parallel configuration to
// train given the constraints of device memory").
//
// Usage:
//   ./examples/memory_planner              # plans all four paper models
//   ./examples/memory_planner 530b         # one model
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/table.h"
#include "common/units.h"
#include "memory/activation_model.h"
#include "perf/pipeline_sim.h"

using namespace mls;

namespace {

void plan(const model::ModelConfig& cfg) {
  const double kDevice = 80.0 * 1024 * 1024 * 1024;
  const auto mm = perf::MachineModel::a100();
  const double state = memory::model_state_bytes_per_rank(cfg).total();

  std::printf("\n### %s — t=%d, p=%d, m=%d, %lld GPUs; model state %s/GPU\n\n",
              cfg.name.c_str(), cfg.t, cfg.p, cfg.interleave_m,
              static_cast<long long>(cfg.num_gpus()),
              format_bytes(state).c_str());

  constexpr auto kTp = core::PlanKind::kTensorParallel;
  constexpr auto kTpSp = core::PlanKind::kTensorSequence;
  const std::pair<const char*, memory::Technique> options[] = {
      {"no recompute, no SP", {kTp, core::Recompute::kNone}},
      {"sequence parallel only", {kTpSp, core::Recompute::kNone}},
      {"selective recompute only", {kTp, core::Recompute::kSelective}},
      {"SP + selective (paper)", {kTpSp, core::Recompute::kSelective}},
      {"full recompute", {kTp, core::Recompute::kFull}},
  };

  Table t({"technique", "activations/GPU", "total/GPU", "fits 80GB",
           "est. iteration", "est. MFU"});
  const char* best = nullptr;
  double best_mfu = 0;
  for (const auto& [name, tech] : options) {
    const double act = memory::total_activation_bytes_first_stage(cfg, tech);
    const bool fits = state + act <= kDevice;
    const auto e2e = perf::end_to_end(cfg, mm, tech);
    t.add_row({name, format_bytes(act), format_bytes(state + act),
               fits ? "yes" : "NO", fmt(e2e.iteration_seconds, 2) + " s",
               fmt(100 * e2e.mfu, 1) + "%"});
    if (fits && e2e.mfu > best_mfu) {
      best_mfu = e2e.mfu;
      best = name;
    }
  }
  t.print();
  if (best != nullptr) {
    std::printf("-> recommended: %s (%.1f%% MFU)\n", best, 100 * best_mfu);
  } else {
    std::printf("-> nothing fits: increase t/p or add recomputation\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Memory planner: what fits an 80 GB A100, and how fast? ===\n");

  const struct {
    const char* key;
    model::ModelConfig cfg;
  } presets[] = {
      {"22b", model::ModelConfig::gpt_22b()},
      {"175b", model::ModelConfig::gpt_175b()},
      {"530b", model::ModelConfig::gpt_530b()},
      {"1t", model::ModelConfig::gpt_1t()},
  };

  if (argc > 1) {
    for (const auto& p : presets) {
      if (std::strcmp(argv[1], p.key) == 0) {
        plan(p.cfg);
        return 0;
      }
    }
    std::fprintf(stderr, "unknown model '%s' (use 22b|175b|530b|1t)\n",
                 argv[1]);
    return 1;
  }
  for (const auto& p : presets) plan(p.cfg);
  return 0;
}
