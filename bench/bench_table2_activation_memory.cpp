// Table 2: activation memory per transformer layer for every technique.
//
// Two parts:
//  1. The paper's closed-form table, evaluated for the four Table 3
//     models.
//  2. Empirical validation: a real transformer layer is executed on the
//     simulated multi-rank substrate under each technique, and the
//     bytes the autograd tape actually keeps for backward (per the
//     MemoryTracker) are compared against the formula — they must agree
//     byte-exactly.
#include <cstdio>

#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/table.h"
#include "common/units.h"
#include "memory/activation_model.h"
#include "model/transformer.h"

using namespace mls;
using memory::Technique;

namespace {

struct LayerBytes {
  int64_t logical = -1;   // MemoryTracker major bytes (paper accounting)
  int64_t physical = -1;  // pool arena high-water delta over fwd+bwd
};

LayerBytes measure_layer_bytes(const model::ModelConfig& cfg) {
  LayerBytes measured;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    auto& mt = MemoryTracker::instance();
    mt.reset();
    const core::ParallelEnv env = model::make_env(cfg, c);
    Rng master(cfg.seed);
    model::TransformerLayer layer(env, cfg, 0, master);
    Rng drng(5);
    ag::Var x(Tensor::randn(Shape{{cfg.s_local(), cfg.b, cfg.h}}, drng), true);
    // Re-arm the arena's high-water marks after weights + input exist,
    // so the physical column isolates what fwd+bwd transiently demand
    // from the pool (fp32 simulation bytes, transients included) next
    // to the logical fp16/mask accounting of the formulas.
    const int64_t live0 = mt.pooled_in_use_bytes();
    mt.reset_physical_peak();
    ag::Var y = layer.forward(x, env);
    const int64_t bytes = mt.current_major_bytes();
    ag::backward(y, Tensor::full(y.value().shape(), 1.f));
    if (c.rank() == 0) {
      measured.logical = bytes;
      measured.physical = mt.pooled_in_use_peak_bytes() - live0;
    }
  });
  return measured;
}

struct TechSetup {
  Technique tech;
  core::PlanKind plan;
  core::Recompute rc;
};

constexpr auto kTp = core::PlanKind::kTensorParallel;
constexpr auto kTpSp = core::PlanKind::kTensorSequence;
constexpr auto kFolded = core::PlanKind::kFoldedTsp;

const TechSetup kSetups[] = {
    {Technique::kTensorParallel, kTp, core::Recompute::kNone},
    {Technique::kTensorSequence, kTpSp, core::Recompute::kNone},
    {Technique::kTensorSelective, kTp, core::Recompute::kSelective},
    {Technique::kTensorSequenceSelective, kTpSp, core::Recompute::kSelective},
    {Technique::kFullRecompute, kTp, core::Recompute::kFull},
    {Technique::kFoldedTsp, kFolded, core::Recompute::kNone},
    {Technique::kFoldedTspSelective, kFolded, core::Recompute::kSelective},
};

}  // namespace

int main() {
  std::printf("=== Table 2: activation memory per transformer layer ===\n\n");

  // Part 1: the closed-form table for the paper's models.
  {
    Table t({"configuration", "formula", "22B", "175B (GPT-3)",
             "530B (MT-NLG)", "1T"});
    struct Row {
      Technique tech;
      const char* formula;
    };
    const Row rows[] = {
        {Technique::kNoParallel, "sbh(34 + 5as/h)"},
        {Technique::kTensorParallel, "sbh(10 + 24/t + 5as/ht)"},
        {Technique::kTensorSequence, "sbh(34/t + 5as/ht)"},
        {Technique::kTensorSelective, "sbh(10 + 24/t)"},
        {Technique::kTensorSequenceSelective, "sbh(34/t)"},
        {Technique::kFullRecompute, "sbh(2)"},
        {Technique::kFoldedTsp, "sbh(26/t + 3as/ht)"},
        {Technique::kFoldedTspSelective, "sbh(26/t)"},
    };
    for (const auto& r : rows) {
      std::vector<std::string> cells = {memory::technique_name(r.tech),
                                        r.formula};
      for (const auto& cfg : {model::ModelConfig::gpt_22b(),
                              model::ModelConfig::gpt_175b(),
                              model::ModelConfig::gpt_530b(),
                              model::ModelConfig::gpt_1t()}) {
        cells.push_back(
            format_bytes(memory::act_bytes_per_layer(cfg, r.tech)));
      }
      t.add_row(cells);
    }
    t.print();
  }

  // Part 2: byte-exact empirical validation at runnable scale.
  std::printf(
      "\n--- Empirical validation (t=4 layer on the simulated substrate; "
      "tracker vs formula) ---\n");
  {
    model::ModelConfig base = model::ModelConfig::tiny(4, 1);
    base.a = 8;
    base.h = 64;
    base.s = 32;
    base.b = 2;

    Table t({"technique", "formula bytes", "measured bytes", "match",
             "pooled physical peak"});
    // Serial row first (t=1).
    {
      model::ModelConfig cfg = base;
      cfg.t = 1;
      const auto expect = static_cast<int64_t>(
          memory::act_bytes_per_layer(cfg, Technique::kNoParallel));
      const auto got = measure_layer_bytes(cfg);
      t.add_row({memory::technique_name(Technique::kNoParallel),
                 std::to_string(expect), std::to_string(got.logical),
                 expect == got.logical ? "EXACT" : "MISMATCH",
                 std::to_string(got.physical)});
    }
    for (const auto& setup : kSetups) {
      model::ModelConfig cfg = base;
      cfg.set_plan(setup.plan);
      cfg.recompute = setup.rc;
      const auto expect = static_cast<int64_t>(
          memory::act_bytes_per_layer(cfg, setup.tech));
      const auto got = measure_layer_bytes(cfg);
      t.add_row({memory::technique_name(setup.tech), std::to_string(expect),
                 std::to_string(got.logical),
                 expect == got.logical ? "EXACT" : "MISMATCH",
                 std::to_string(got.physical)});
    }
    t.print();
    std::printf(
        "\npooled physical peak = high-water mark of live bytes rank 0's\n"
        "arena had handed out during fwd+bwd (fp32 simulation storage,\n"
        "transients included); the logical columns count only saved\n"
        "activations at paper dtypes.\n");
  }
  return 0;
}
