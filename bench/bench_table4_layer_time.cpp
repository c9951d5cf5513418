// Table 4: time to complete the forward and backward pass of a single
// transformer layer of the 22B model, for the five experiment rows plus
// a folded-TSP row.
//
// Times come from the calibrated A100 cost model (src/perf); the
// calibration uses only row 1's forward time — the other nine numbers
// are predictions. The paper's measurements are printed alongside.
// Folded TSP (arXiv 2604.26294) is not in the paper; it prices like
// SP + selective because it shares their collectives and sharding.
#include <cstdio>
#include <string>

#include "common/table.h"
#include "perf/layer_time.h"

using namespace mls;

namespace {

using core::Recompute;

constexpr auto kTp = core::PlanKind::kTensorParallel;
constexpr auto kTpSp = core::PlanKind::kTensorSequence;
constexpr auto kFolded = core::PlanKind::kFoldedTsp;

struct Row {
  const char* name;
  memory::Technique tech;
  double paper_fwd, paper_bwd, paper_comb;  // < 0: no paper number
  const char* paper_ovh;
};

const Row kRows[] = {
    {"Baseline no recompute", {kTp, Recompute::kNone}, 7.7, 11.9, 19.6, "-"},
    {"Sequence Parallelism", {kTpSp, Recompute::kNone}, 7.2, 11.8, 19.0, "-3%"},
    {"Baseline with recompute", {kTp, Recompute::kFull}, 7.7, 19.5, 27.2, "39%"},
    {"Selective Recompute", {kTp, Recompute::kSelective}, 7.7, 13.2, 20.9, "7%"},
    {"Selective + Sequence", {kTpSp, Recompute::kSelective}, 7.2, 13.1, 20.3, "4%"},
    {"Folded TSP + selective", {kFolded, Recompute::kSelective}, -1, -1, -1, "-"},
};

// "ours (paper)" with one decimal.
std::string with_paper(double ours, double paper) {
  return fmt(ours, 1) + " (" + (paper < 0 ? "-" : fmt(paper, 1)) + ")";
}

}  // namespace

int main() {
  std::printf(
      "=== Table 4: single 22B transformer-layer times (cost model vs "
      "paper) ===\n\n");

  const auto mm = perf::MachineModel::a100();
  const auto cfg = model::ModelConfig::gpt_22b();
  const auto base = perf::layer_time(cfg, mm, kRows[0].tech);

  Table t({"experiment", "fwd ms (paper)", "bwd ms (paper)",
           "combined ms (paper)", "overhead (paper)"});
  for (const auto& r : kRows) {
    const auto lt = perf::layer_time(cfg, mm, r.tech);
    const double ovh = 100.0 * (lt.combined() / base.combined() - 1.0);
    t.add_row({r.name, with_paper(lt.forward * 1e3, r.paper_fwd),
               with_paper((lt.backward + lt.recompute) * 1e3, r.paper_bwd),
               with_paper(lt.combined() * 1e3, r.paper_comb),
               fmt(ovh, 0) + "% (" + r.paper_ovh + ")"});
  }
  t.print();
  return 0;
}
