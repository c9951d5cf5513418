// Table 2: activation memory per transformer layer for every technique.
//
// Two parts:
//  1. The paper's closed-form table, evaluated for the four Table 3
//     models.
//  2. Empirical validation: a real transformer layer is executed on the
//     simulated multi-rank substrate under every (plan, recompute)
//     pair, and the bytes the autograd tape actually keeps for
//     backward (per the MemoryTracker) are compared against the
//     formula — they must agree byte-exactly, or the bench exits 1.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/table.h"
#include "common/units.h"
#include "memory/activation_model.h"
#include "model/transformer.h"

using namespace mls;

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
    // from the pool (fp32 simulation bytes and 1-byte masks, transients
    // included) next
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

// A named view of one (plan, recompute) cell: the row label and the
// paper's formula string. `serial` evaluates the tp cell at t=1, which
// is Table 2's "no parallelism" row (Eq 1).
struct View {
  const char* label;
  const char* formula;
  memory::Technique tech;
  bool serial = false;
};

constexpr auto kTp = core::PlanKind::kTensorParallel;
constexpr auto kTpSp = core::PlanKind::kTensorSequence;
constexpr auto kFolded = core::PlanKind::kFoldedTsp;
constexpr auto kNone = core::Recompute::kNone;
constexpr auto kSel = core::Recompute::kSelective;
constexpr auto kFull = core::Recompute::kFull;

// Table 2's six rows, then the folded-TSP plan's two.
const View kTable2Rows[] = {
    {"no parallelism", "sbh(34 + 5as/h)", {kTp, kNone}, true},
    {"tensor parallel (baseline)", "sbh(10 + 24/t + 5as/ht)", {kTp, kNone}},
    {"tensor + sequence parallel", "sbh(34/t + 5as/ht)", {kTpSp, kNone}},
    {"tensor parallel + selective recompute", "sbh(10 + 24/t)", {kTp, kSel}},
    {"tensor + sequence parallel + selective recompute", "sbh(34/t)",
     {kTpSp, kSel}},
    {"full activation recomputation", "sbh(2)", {kTp, kFull}},
    {"folded tensor + sequence parallel", "sbh(26/t + 3as/ht)",
     {kFolded, kNone}},
    {"folded tensor + sequence parallel + selective recompute", "sbh(26/t)",
     {kFolded, kSel}},
};

// The sequence-sharded full-recompute cells, which Table 2 folds into
// its replicated sbh(2) row: the stored layer input is sharded s/t.
const View kShardedFull[] = {
    {"tensor + sequence parallel + full recompute", "sbh(2/t)",
     {kTpSp, kFull}},
    {"folded tensor + sequence parallel + full recompute", "sbh(2/t)",
     {kFolded, kFull}},
};

// `cfg` rewired to the view's cell.
model::ModelConfig at(model::ModelConfig cfg, const View& v) {
  if (v.serial) cfg.t = 1;
  cfg.set_plan(v.tech.plan);
  cfg.recompute = v.tech.recompute;
  return cfg;
}

}  // namespace

int main() {
  std::printf("=== Table 2: activation memory per transformer layer ===\n\n");

  // Part 1: the closed-form table for the paper's models.
  {
    Table t({"configuration", "formula", "22B", "175B (GPT-3)",
             "530B (MT-NLG)", "1T"});
    for (const View& v : kTable2Rows) {
      std::vector<std::string> cells = {v.label, v.formula};
      for (const auto& cfg : {model::ModelConfig::gpt_22b(),
                              model::ModelConfig::gpt_175b(),
                              model::ModelConfig::gpt_530b(),
                              model::ModelConfig::gpt_1t()}) {
        cells.push_back(format_bytes(
            memory::act_bytes_per_layer(at(cfg, v), v.tech)));
      }
      t.add_row(cells);
    }
    t.print();
  }

  // Part 2: byte-exact empirical validation at runnable scale, over
  // every (plan, recompute) cell plus the serial row.
  std::printf(
      "\n--- Empirical validation (t=4 layer on the simulated substrate; "
      "tracker vs formula) ---\n");
  bool all_exact = true;
  {
    model::ModelConfig base = model::ModelConfig::tiny(4, 1);
    base.a = 8;
    base.h = 64;
    base.s = 32;
    base.b = 2;

    Table t({"technique", "formula bytes", "measured bytes", "match",
             "pooled physical peak"});
    std::vector<View> views(std::begin(kTable2Rows), std::end(kTable2Rows));
    views.insert(views.end(), std::begin(kShardedFull), std::end(kShardedFull));
    for (const View& v : views) {
      const model::ModelConfig cfg = at(base, v);
      const auto expect =
          static_cast<int64_t>(memory::act_bytes_per_layer(cfg, v.tech));
      const auto got = measure_layer_bytes(cfg);
      const bool exact = expect == got.logical;
      all_exact = all_exact && exact;
      t.add_row({v.label, std::to_string(expect), std::to_string(got.logical),
                 exact ? "EXACT" : "MISMATCH", std::to_string(got.physical)});
    }
    t.print();
    std::printf(
        "\npooled physical peak = high-water mark of live bytes rank 0's\n"
        "arena had handed out during fwd+bwd (fp32 simulation storage and\n"
        "1-byte dropout masks, transients included); the logical columns\n"
        "count only saved activations at paper dtypes.\n");
  }
  return all_exact ? 0 : 1;
}
