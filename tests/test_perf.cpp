// Performance-model tests: the Appendix A FLOPs identities (exact) and
// the calibrated cost model's reproduction of Table 4, Figure 8 and
// Table 5 (shape + tolerance). The model is calibrated on a single
// number (Table 4 row 1); everything else asserted here is predicted.
#include <gtest/gtest.h>

#include <string>

#include "core/parallel_plan.h"
#include "perf/flops.h"
#include "perf/pipeline_sim.h"

namespace mls {
namespace {

using core::Recompute;
using memory::Technique;
using model::ModelConfig;
using perf::MachineModel;

constexpr auto kTp = core::PlanKind::kTensorParallel;
constexpr auto kTpSp = core::PlanKind::kTensorSequence;
constexpr Technique kBaseline{kTp, Recompute::kNone};
constexpr Technique kPresent{kTpSp, Recompute::kSelective};

// ------------------------------------------------------ Appendix A

TEST(FlopsModel, Eq7KnownValue) {
  // Hand-computed Eq 7 for the 22B config.
  ModelConfig cfg = ModelConfig::gpt_22b();
  const double expect = 72.0 * 4 * 48 * 2048 * 6144.0 * 6144.0 *
                        (1.0 + 2048.0 / (6 * 6144.0) +
                         51200.0 / (12.0 * 6144.0 * 48));
  EXPECT_DOUBLE_EQ(perf::model_flops_per_iteration(cfg), expect);
}

TEST(FlopsModel, HardwareToModelRatioApproxEq9) {
  // Eq 9: for selective recomputation, hardware/model ≈ 1 + s/6h.
  for (const auto& cfg : {ModelConfig::gpt_175b(), ModelConfig::gpt_530b()}) {
    const double exact =
        perf::hardware_flops_per_iteration(cfg, Recompute::kSelective) /
        perf::model_flops_per_iteration(cfg);
    EXPECT_NEAR(exact, perf::hw_to_model_flops_ratio_approx(cfg), 0.01);
  }
}

TEST(FlopsModel, SelectiveRecomputeFlopsOverheadMatchesPaper) {
  // §5: "only 2.7% and 1.6% FLOPs overhead" for GPT-3 and MT-NLG.
  auto overhead = [](const ModelConfig& cfg) {
    return perf::hardware_flops_per_iteration(cfg, Recompute::kSelective) /
               perf::model_flops_per_iteration(cfg) -
           1.0;
  };
  EXPECT_NEAR(overhead(ModelConfig::gpt_175b()), 0.027, 0.002);
  EXPECT_NEAR(overhead(ModelConfig::gpt_530b()), 0.016, 0.002);
}

TEST(FlopsModel, OrderingNoneSelectiveFull) {
  const ModelConfig cfg = ModelConfig::gpt_175b();
  const double none = perf::hardware_flops_per_iteration(cfg, Recompute::kNone);
  const double sel =
      perf::hardware_flops_per_iteration(cfg, Recompute::kSelective);
  const double full = perf::hardware_flops_per_iteration(cfg, Recompute::kFull);
  EXPECT_LT(none, sel);
  EXPECT_LT(sel, full);
  // Full recomputation costs roughly an extra forward pass (~1/3).
  EXPECT_NEAR(full / none, 4.0 / 3.0, 0.02);
}

TEST(FlopsModel, MfuFromPaperIterationTimesMatchesPaperMfu) {
  // §6.3 consistency: plugging the paper's own iteration times into the
  // MFU definition must reproduce the paper's MFU column.
  struct Row {
    ModelConfig cfg;
    double seconds, mfu, hfu;
  };
  const Row rows[] = {
      {ModelConfig::gpt_22b(), 1.10, 0.415, 0.437},
      {ModelConfig::gpt_175b(), 13.75, 0.514, 0.528},
      {ModelConfig::gpt_530b(), 37.83, 0.560, 0.570},
      {ModelConfig::gpt_1t(), 71.49, 0.563, 0.570},
  };
  for (const auto& r : rows) {
    EXPECT_NEAR(perf::mfu(r.cfg, r.seconds, 312e12), r.mfu, 0.01) << r.cfg.name;
    EXPECT_NEAR(perf::hfu(r.cfg, Recompute::kSelective, r.seconds, 312e12),
                r.hfu, 0.01)
        << r.cfg.name;
  }
}

// ------------------------------------------------------ Table 4

struct Table4Row {
  // gtest prints a parameter's raw bytes into its ctest name: the
  // cell's 4-byte PlanKind and Recompute leave no padding in it.
  Technique tech;
  double fwd_ms, bwd_ms;  // paper values (backward incl. recompute)
};
static_assert(sizeof(Table4Row) == sizeof(core::PlanKind) + sizeof(Recompute) +
                                       2 * sizeof(double),
              "Table4Row must have no padding bytes");

class Table4 : public ::testing::TestWithParam<Table4Row> {};

TEST_P(Table4, LayerTimesWithinTolerance) {
  const auto row = GetParam();
  const ModelConfig cfg = ModelConfig::gpt_22b();
  const MachineModel mm = MachineModel::a100();
  const auto lt = perf::layer_time(cfg, mm, row.tech);
  EXPECT_NEAR(lt.forward * 1e3, row.fwd_ms, 0.08 * row.fwd_ms);
  EXPECT_NEAR((lt.backward + lt.recompute) * 1e3, row.bwd_ms,
              0.08 * row.bwd_ms);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table4,
    ::testing::Values(Table4Row{kBaseline, 7.7, 11.9},
                      Table4Row{{kTpSp, Recompute::kNone}, 7.2, 11.8},
                      Table4Row{{kTp, Recompute::kFull}, 7.7, 19.5},
                      Table4Row{{kTp, Recompute::kSelective}, 7.7, 13.2},
                      Table4Row{kPresent, 7.2, 13.1}),
    [](const ::testing::TestParamInfo<Table4Row>& info) {
      const Technique& tech = info.param.tech;
      return std::string(core::plan_for(tech.plan).sequence_sharded() ? "sp"
                                                                      : "nosp") +
             "_" + core::recompute_name(tech.recompute);
    });

TEST(Table4Shape, OverheadsMatchPaperStory) {
  const ModelConfig cfg = ModelConfig::gpt_22b();
  const MachineModel mm = MachineModel::a100();
  const auto base = perf::layer_time(cfg, mm, kBaseline);
  const auto sp = perf::layer_time(cfg, mm, {kTpSp, Recompute::kNone});
  const auto full = perf::layer_time(cfg, mm, {kTp, Recompute::kFull});
  const auto sel = perf::layer_time(cfg, mm, {kTp, Recompute::kSelective});
  const auto both = perf::layer_time(cfg, mm, kPresent);

  // "sequence parallelism provides a modest improvement" (−3%).
  EXPECT_LT(sp.combined(), base.combined());
  EXPECT_GT(sp.combined() / base.combined(), 0.93);
  // Full recompute ≈ 39% overhead (the optimized-backward footnote).
  const double full_ovh = full.combined() / base.combined() - 1.0;
  EXPECT_NEAR(full_ovh, 0.39, 0.05);
  // Selective ≈ 7%, selective+sequence ≈ 4%.
  EXPECT_NEAR(sel.combined() / base.combined() - 1.0, 0.07, 0.035);
  EXPECT_NEAR(both.combined() / base.combined() - 1.0, 0.04, 0.035);
  // Selective recompute itself ~1.3 ms (§6.2: "1.3ms, or 11% of the
  // 11.9ms baseline").
  EXPECT_NEAR(sel.recompute * 1e3, 1.3, 0.4);
}

// ------------------------------------------------------ Figure 8

TEST(Figure8, RecomputeOverheadShrinksWithModelSize) {
  const MachineModel mm = MachineModel::a100();
  double prev_present_ovh = 1.0;
  for (const auto& cfg : {ModelConfig::gpt_22b(), ModelConfig::gpt_175b(),
                          ModelConfig::gpt_530b(), ModelConfig::gpt_1t()}) {
    const auto base = perf::layer_time(cfg, mm, kBaseline);
    const auto present = perf::layer_time(cfg, mm, kPresent);
    const auto full = perf::layer_time(cfg, mm, {kTp, Recompute::kFull});
    const double present_ovh = present.combined() / base.combined() - 1.0;
    const double full_ovh = full.combined() / base.combined() - 1.0;
    // Fig 8: full recompute stays ~36-39% while present work shrinks.
    EXPECT_NEAR(full_ovh, 0.37, 0.05) << cfg.name;
    EXPECT_LE(present_ovh, prev_present_ovh + 1e-9) << cfg.name;
    prev_present_ovh = present_ovh;
  }
  // "For the 530B and 1T cases, the overhead is just 2%".
  for (const auto& cfg : {ModelConfig::gpt_530b(), ModelConfig::gpt_1t()}) {
    const auto base = perf::layer_time(cfg, mm, kBaseline);
    const auto present = perf::layer_time(cfg, mm, kPresent);
    EXPECT_LT(present.combined() / base.combined() - 1.0, 0.05) << cfg.name;
  }
}

// ------------------------------------------------------ folded TSP

// Folded TSP shares tp_sp's collectives and outer sharding, and the
// model prices no pointwise replay, so every (preset, rung) cell prices
// exactly like tp_sp. Pricing a replay later must change this test.
TEST(CostModel, FoldedTspPricesLikeTpSp) {
  const MachineModel mm = MachineModel::a100();
  for (const auto& cfg : {ModelConfig::gpt_22b(), ModelConfig::gpt_175b(),
                          ModelConfig::gpt_530b(), ModelConfig::gpt_1t()}) {
    for (Recompute rc :
         {Recompute::kNone, Recompute::kSelective, Recompute::kFull}) {
      const Technique folded{core::PlanKind::kFoldedTsp, rc};
      const Technique tp_sp{kTpSp, rc};
      const auto f = perf::layer_time(cfg, mm, folded);
      const auto s = perf::layer_time(cfg, mm, tp_sp);
      const std::string cell = cfg.name + " " + core::recompute_name(rc);
      EXPECT_DOUBLE_EQ(f.forward, s.forward) << cell;
      EXPECT_DOUBLE_EQ(f.backward, s.backward) << cell;
      EXPECT_DOUBLE_EQ(f.recompute, s.recompute) << cell;
      EXPECT_DOUBLE_EQ(perf::end_to_end(cfg, mm, folded).iteration_seconds,
                       perf::end_to_end(cfg, mm, tp_sp).iteration_seconds)
          << cell;
    }
  }
}

// ------------------------------------------------------ Table 5

struct Table5Row {
  ModelConfig cfg;
  double full_s, present_s, mfu, hfu;
};

TEST(Table5, EndToEndIterationTimes) {
  const MachineModel mm = MachineModel::a100();
  const Table5Row rows[] = {
      {ModelConfig::gpt_22b(), 1.42, 1.10, 0.415, 0.437},
      {ModelConfig::gpt_175b(), 18.13, 13.75, 0.514, 0.528},
      {ModelConfig::gpt_530b(), 49.05, 37.83, 0.560, 0.570},
      {ModelConfig::gpt_1t(), 94.42, 71.49, 0.563, 0.570},
  };
  for (const auto& r : rows) {
    const auto full = perf::end_to_end(r.cfg, mm, {kTp, Recompute::kFull});
    const auto present = perf::end_to_end(r.cfg, mm, kPresent);
    EXPECT_NEAR(full.iteration_seconds, r.full_s, 0.08 * r.full_s) << r.cfg.name;
    EXPECT_NEAR(present.iteration_seconds, r.present_s, 0.08 * r.present_s)
        << r.cfg.name;
    // "between 29.0% and 32.1% improvement in the throughput".
    const double incr = full.iteration_seconds / present.iteration_seconds - 1;
    EXPECT_GT(incr, 0.25) << r.cfg.name;
    EXPECT_LT(incr, 0.40) << r.cfg.name;
    EXPECT_NEAR(present.mfu, r.mfu, 0.03) << r.cfg.name;
    EXPECT_NEAR(present.hfu, r.hfu, 0.03) << r.cfg.name;
    EXPECT_GT(present.hfu, present.mfu) << r.cfg.name;
  }
  // MFU improves with scale (22B -> 530B).
  const auto m22 = perf::end_to_end(rows[0].cfg, mm, kPresent);
  const auto m530 = perf::end_to_end(rows[2].cfg, mm, kPresent);
  EXPECT_GT(m530.mfu, m22.mfu);
}

TEST(Table5, DataParallelScalingNote) {
  // §6.3: 530B at 8-way DP: 37.83 s -> 39.15 s, MFU 56.0% -> 54.2%.
  const MachineModel mm = MachineModel::a100();
  const ModelConfig cfg = ModelConfig::gpt_530b();
  const double dp_seconds = perf::dp_iteration_seconds(cfg, mm, 37.83, 8);
  EXPECT_NEAR(dp_seconds, 39.15, 0.8);
  // MFU with the batch scaled by dp and gpus scaled by dp: the
  // per-replica model FLOPs rate just divides by the new time.
  const double dp_mfu = perf::mfu(cfg, dp_seconds, 312e12);
  EXPECT_NEAR(dp_mfu, 0.542, 0.015);
}

// ------------------------------------------------------ simulator shape

TEST(PipelineSim, SingleStageHasNoBubble) {
  const MachineModel mm = MachineModel::a100();
  ModelConfig cfg = ModelConfig::gpt_22b();  // p = 1
  const auto est = perf::estimate_iteration_time(cfg, mm, kPresent);
  EXPECT_NEAR(est.bubble_fraction, 0.0, 1e-9);
}

TEST(PipelineSim, BubbleApproximatesClosedForm) {
  // Plain 1F1B bubble fraction ≈ (p-1)/(n + p - 1) when per-stage times
  // are uniform; p2p wire and first/last-stage extras perturb slightly.
  const MachineModel mm = MachineModel::a100();
  ModelConfig cfg = ModelConfig::gpt_175b();
  cfg.interleave_m = 1;
  const auto est = perf::estimate_iteration_time(cfg, mm, kPresent);
  const double n = static_cast<double>(cfg.microbatches());
  const double expect = (cfg.p - 1) / (n + cfg.p - 1);
  EXPECT_NEAR(est.bubble_fraction, expect, 0.05);
}

TEST(PipelineSim, InterleavingShrinksBubble) {
  const MachineModel mm = MachineModel::a100();
  ModelConfig plain = ModelConfig::gpt_175b();
  plain.interleave_m = 1;
  ModelConfig inter = ModelConfig::gpt_175b();  // m = 3
  const auto ep = perf::estimate_iteration_time(plain, mm, kPresent);
  const auto ei = perf::estimate_iteration_time(inter, mm, kPresent);
  EXPECT_LT(ei.bubble_fraction, ep.bubble_fraction);
}

TEST(PipelineSim, MoreMicrobatchesAmortizeTheBubble) {
  const MachineModel mm = MachineModel::a100();
  ModelConfig small = ModelConfig::gpt_175b();
  small.interleave_m = 1;
  ModelConfig big = small;
  big.global_batch = small.global_batch * 4;
  const auto es = perf::estimate_iteration_time(small, mm, kPresent);
  const auto eb = perf::estimate_iteration_time(big, mm, kPresent);
  EXPECT_LT(eb.bubble_fraction, es.bubble_fraction);
}

}  // namespace
}  // namespace mls
