// Table 4: time to complete the forward and backward pass of a single
// transformer layer of the 22B model, for the five experiment rows.
//
// Times come from the calibrated A100 cost model (src/perf); the
// calibration uses only row 1's forward time — the other nine numbers
// are predictions. The paper's measurements are printed alongside.
//
// A second section cross-checks the *relative* story on the real
// numeric substrate: wall-clock of a small layer on the CPU simulator,
// where recomputation overheads must show the same ordering (full >>
// selective > none) even though absolute times are CPU-bound.
#include <chrono>
#include <cstdio>

#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/table.h"
#include "common/units.h"
#include "model/transformer.h"
#include "perf/layer_time.h"

using namespace mls;

namespace {

struct Row {
  const char* name;
  bool sp;
  core::Recompute rc;
  double paper_fwd, paper_bwd, paper_comb;
  const char* paper_ovh;
};

const Row kRows[] = {
    {"Baseline no recompute", false, core::Recompute::kNone, 7.7, 11.9, 19.6, "-"},
    {"Sequence Parallelism", true, core::Recompute::kNone, 7.2, 11.8, 19.0, "-3%"},
    {"Baseline with recompute", false, core::Recompute::kFull, 7.7, 19.5, 27.2, "39%"},
    {"Selective Recompute", false, core::Recompute::kSelective, 7.7, 13.2, 20.9, "7%"},
    {"Selective + Sequence", true, core::Recompute::kSelective, 7.2, 13.1, 20.3, "4%"},
};

// Wall-clock of one fwd+bwd of a small real layer under the technique.
double numeric_layer_seconds(core::PlanKind plan, core::Recompute rc) {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 1);
  cfg.a = 8;
  cfg.h = 128;
  cfg.s = 64;
  cfg.b = 2;
  cfg.set_plan(plan);
  cfg.recompute = rc;
  double seconds = 0;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    const core::ParallelEnv env = model::make_env(cfg, c);
    Rng master(cfg.seed);
    model::TransformerLayer layer(env, cfg, 0, master);
    Rng drng(5);
    const int64_t s_local = cfg.s_local();
    Tensor x0 = Tensor::randn(Shape{{s_local, cfg.b, cfg.h}}, drng);
    Tensor dy = Tensor::full(Shape{{s_local, cfg.b, cfg.h}}, 1.f);
    // Warmup.
    {
      ag::Var x(x0.clone(), true);
      ag::backward(layer.forward(x, env), dy);
    }
    const auto start = std::chrono::steady_clock::now();
    const int iters = 10;
    for (int i = 0; i < iters; ++i) {
      ag::Var x(x0.clone(), true);
      ag::backward(layer.forward(x, env), dy);
    }
    const auto stop = std::chrono::steady_clock::now();
    if (c.rank() == 0) {
      seconds = std::chrono::duration<double>(stop - start).count() / iters;
    }
  });
  return seconds;
}

}  // namespace

int main() {
  std::printf(
      "=== Table 4: single 22B transformer-layer times (cost model vs "
      "paper) ===\n\n");

  const auto mm = perf::MachineModel::a100();
  const auto cfg = model::ModelConfig::gpt_22b();
  const auto base = perf::layer_time(cfg, mm, false, core::Recompute::kNone);

  Table t({"experiment", "fwd ms (paper)", "bwd ms (paper)",
           "combined ms (paper)", "overhead (paper)"});
  for (const auto& r : kRows) {
    const auto lt = perf::layer_time(cfg, mm, r.sp, r.rc);
    const double fwd = lt.forward * 1e3;
    const double bwd = (lt.backward + lt.recompute) * 1e3;
    const double comb = lt.combined() * 1e3;
    const double ovh = 100.0 * (lt.combined() / base.combined() - 1.0);
    t.add_row({r.name, fmt(fwd, 1) + " (" + fmt(r.paper_fwd, 1) + ")",
               fmt(bwd, 1) + " (" + fmt(r.paper_bwd, 1) + ")",
               fmt(comb, 1) + " (" + fmt(r.paper_comb, 1) + ")",
               fmt(ovh, 0) + "% (" + r.paper_ovh + ")"});
  }
  t.print();

  std::printf(
      "\n--- Relative cross-check on the numeric CPU substrate (t=2, tiny "
      "layer) ---\n");
  constexpr auto kTp = core::PlanKind::kTensorParallel;
  const double n_base = numeric_layer_seconds(kTp, core::Recompute::kNone);
  const double n_sel = numeric_layer_seconds(kTp, core::Recompute::kSelective);
  const double n_full = numeric_layer_seconds(kTp, core::Recompute::kFull);
  Table t2({"experiment", "fwd+bwd wall-clock", "overhead"});
  t2.add_row({"no recompute", format_time_ms(n_base), "-"});
  t2.add_row({"selective recompute", format_time_ms(n_sel),
              fmt(100.0 * (n_sel / n_base - 1), 0) + "%"});
  t2.add_row({"full recompute", format_time_ms(n_full),
              fmt(100.0 * (n_full / n_base - 1), 0) + "%"});
  t2.print();
  std::printf(
      "(CPU absolute times are meaningless; the ordering full >> selective "
      "> none is the point.)\n");

  // Plan comparison: folded TSP recomputes only the GeLU output and the
  // softmax/dropout products pointwise inside backward — its overhead
  // over plain TP+SP must be small (nothing like full recompute's).
  std::printf("\n--- Parallel-plan comparison (t=2, tiny layer) ---\n");
  const double n_tp = numeric_layer_seconds(kTp, core::Recompute::kNone);
  const double n_sp = numeric_layer_seconds(core::PlanKind::kTensorSequence,
                                            core::Recompute::kNone);
  const double n_folded = numeric_layer_seconds(core::PlanKind::kFoldedTsp,
                                                core::Recompute::kNone);
  Table t3({"plan", "fwd+bwd wall-clock", "vs tp"});
  t3.add_row({"tp", format_time_ms(n_tp), "-"});
  t3.add_row({"tp_sp", format_time_ms(n_sp),
              fmt(100.0 * (n_sp / n_tp - 1), 0) + "%"});
  t3.add_row({"folded_tsp", format_time_ms(n_folded),
              fmt(100.0 * (n_folded / n_tp - 1), 0) + "%"});
  t3.print();
  return 0;
}
