// Validates the paper's activation-memory formulas (§4, Table 2)
// BYTE-EXACTLY against the runtime MemoryTracker: for every technique,
// the bytes autograd keeps alive at the end of a transformer layer's
// forward pass must equal the closed-form prediction.
#include <gtest/gtest.h>

#include <tuple>

#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "memory/activation_model.h"
#include "model/gpt.h"

namespace mls {
namespace {

using memory::Technique;
using model::ModelConfig;

// Measures the major activation bytes held at the end of one
// transformer layer's forward pass under the given configuration.
int64_t measure_layer_bytes(const ModelConfig& cfg) {
  int64_t measured = -1;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    auto& mt = MemoryTracker::instance();
    mt.reset();
    const core::ParallelEnv env = model::make_env(cfg, c);

    Rng master(cfg.seed);
    model::TransformerLayer layer(env, cfg, 0, master);

    Rng drng(5);
    ag::Var x(Tensor::randn(Shape{{cfg.s_local(), cfg.b, cfg.h}}, drng), true);
    ag::Var y = layer.forward(x, env);
    const int64_t bytes = mt.current_major_bytes();
    // Drain the graph so every rank ends clean.
    ag::backward(y, Tensor::full(y.value().shape(), 1.f));
    MLS_CHECK_EQ(mt.current_bytes(), 0);
    if (c.rank() == 0) measured = bytes;
  });
  return measured;
}

// (a, h_per_head, s, b, t): property sweep over shapes and widths.
using ShapeParam = std::tuple<int64_t, int64_t, int64_t, int64_t, int>;

class Table2Validation : public ::testing::TestWithParam<ShapeParam> {
 protected:
  ModelConfig base_config() const {
    auto [a, hd, s, b, t] = GetParam();
    ModelConfig cfg = ModelConfig::tiny(t, 1);
    cfg.a = a;
    cfg.h = a * hd;
    cfg.s = s;
    cfg.b = b;
    cfg.v = 32 * t;
    return cfg;
  }
};

TEST_P(Table2Validation, NoParallelism) {
  ModelConfig cfg = base_config();
  if (cfg.t != 1) GTEST_SKIP();
  const double expect = memory::act_bytes_per_layer(cfg, Technique::kNoParallel);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

TEST_P(Table2Validation, TensorParallel) {
  ModelConfig cfg = base_config();
  const double expect =
      memory::act_bytes_per_layer(cfg, Technique::kTensorParallel);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

TEST_P(Table2Validation, TensorSequenceParallel) {
  ModelConfig cfg = base_config();
  if (cfg.s % cfg.t != 0) GTEST_SKIP();
  cfg.set_plan(core::PlanKind::kTensorSequence);
  const double expect =
      memory::act_bytes_per_layer(cfg, Technique::kTensorSequence);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

TEST_P(Table2Validation, TensorParallelSelectiveRecompute) {
  ModelConfig cfg = base_config();
  cfg.recompute = core::Recompute::kSelective;
  const double expect =
      memory::act_bytes_per_layer(cfg, Technique::kTensorSelective);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

TEST_P(Table2Validation, TensorSequenceSelective) {
  ModelConfig cfg = base_config();
  if (cfg.s % cfg.t != 0) GTEST_SKIP();
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  const double expect =
      memory::act_bytes_per_layer(cfg, Technique::kTensorSequenceSelective);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

TEST_P(Table2Validation, FoldedTsp) {
  ModelConfig cfg = base_config();
  if (cfg.s % cfg.t != 0) GTEST_SKIP();
  cfg.set_plan(core::PlanKind::kFoldedTsp);
  const double expect = memory::act_bytes_per_layer(cfg, Technique::kFoldedTsp);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

TEST_P(Table2Validation, FoldedTspSelective) {
  ModelConfig cfg = base_config();
  if (cfg.s % cfg.t != 0) GTEST_SKIP();
  cfg.set_plan(core::PlanKind::kFoldedTsp);
  cfg.recompute = core::Recompute::kSelective;
  const double expect =
      memory::act_bytes_per_layer(cfg, Technique::kFoldedTspSelective);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

TEST_P(Table2Validation, FullRecompute) {
  ModelConfig cfg = base_config();
  cfg.recompute = core::Recompute::kFull;
  const double expect =
      memory::act_bytes_per_layer(cfg, Technique::kFullRecompute);
  EXPECT_EQ(measure_layer_bytes(cfg), static_cast<int64_t>(expect));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Table2Validation,
    ::testing::Values(ShapeParam{4, 8, 16, 2, 1},   // serial
                      ShapeParam{4, 8, 16, 2, 2},   // t=2
                      ShapeParam{4, 8, 16, 2, 4},   // t=4
                      ShapeParam{8, 4, 16, 1, 4},   // many heads
                      ShapeParam{2, 16, 8, 3, 2},   // wide heads, odd batch
                      ShapeParam{8, 8, 32, 1, 8}),  // long sequence, t=8
    [](const ::testing::TestParamInfo<ShapeParam>& info) {
      const auto& p = info.param;
      return "a" + std::to_string(std::get<0>(p)) + "_hd" +
             std::to_string(std::get<1>(p)) + "_s" +
             std::to_string(std::get<2>(p)) + "_b" +
             std::to_string(std::get<3>(p)) + "_t" +
             std::to_string(std::get<4>(p));
    });

// ------------------------------------------------------------------
// Whole-model (first pipeline stage, p=1) totals including the §4.3
// extras: embedding dropout, final layer-norm, output projection and
// fp32 logits.
// ------------------------------------------------------------------

int64_t measure_model_bytes(const ModelConfig& cfg) {
  int64_t measured = -1;
  Rng trng(9);
  std::vector<int64_t> tokens(static_cast<size_t>(cfg.s * cfg.b));
  std::vector<int64_t> targets(tokens.size());
  for (auto& t : tokens) t = static_cast<int64_t>(trng.next_below(static_cast<uint64_t>(cfg.v)));
  for (auto& t : targets) t = static_cast<int64_t>(trng.next_below(static_cast<uint64_t>(cfg.v)));
  spmd::run(cfg.t, [&](comm::Comm& c) {
    auto& mt = MemoryTracker::instance();
    mt.reset();
    model::GPTModel m(cfg, c);
    ag::Var loss = m.forward_loss(tokens, targets);
    const int64_t bytes = mt.current_major_bytes();
    ag::backward(loss);
    MLS_CHECK_EQ(mt.current_bytes(), 0);
    if (c.rank() == 0) measured = bytes;
  });
  return measured;
}

TEST(TotalActivationMemory, ModelMeasurementMatchesEq5PlusExtras) {
  for (const bool sp : {false, true}) {
    for (const auto rc : {core::Recompute::kNone, core::Recompute::kSelective}) {
      ModelConfig cfg = ModelConfig::tiny(2, 2);
      cfg.set_plan(sp ? core::PlanKind::kTensorSequence
                      : core::PlanKind::kTensorParallel);
      cfg.recompute = rc;
      const Technique tech = memory::technique_of(cfg);
      const double expect =
          memory::total_activation_bytes_first_stage(cfg, tech, true);
      EXPECT_EQ(measure_model_bytes(cfg), static_cast<int64_t>(expect))
          << "sp=" << sp << " rc=" << core::recompute_name(rc);
    }
  }
}

TEST(TotalActivationMemory, MinorBuffersAreNegligible) {
  // §4's approximation "2sb << sbh": the tracked minor bytes (layernorm
  // mean/rstd) must be a tiny fraction of the major bytes.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.h = 128;  // large-ish h so the claim is meaningful
  cfg.a = 4;
  Rng trng(9);
  std::vector<int64_t> tokens(static_cast<size_t>(cfg.s * cfg.b), 1);
  std::vector<int64_t> targets(tokens.size(), 2);
  spmd::run(1, [&](comm::Comm& c) {
    auto& mt = MemoryTracker::instance();
    mt.reset();
    model::GPTModel m(cfg, c);
    ag::Var loss = m.forward_loss(tokens, targets);
    EXPECT_LT(mt.current_minor_bytes(), mt.current_major_bytes() / 20);
    ag::backward(loss);
  });
}

// ------------------------------------------------------------------
// Closed-form checks of the paper's §5 headline numbers.
// ------------------------------------------------------------------

TEST(PaperConstants, AttentionTermForGpt3AndMtNlg) {
  // §5: "For GPT-3 ... 5as/h = 80. For MT-NLG ... 5as/h = 64."
  const ModelConfig gpt3 = ModelConfig::gpt_175b();
  EXPECT_DOUBLE_EQ(5.0 * gpt3.a * gpt3.s / gpt3.h, 80.0);
  const ModelConfig mtnlg = ModelConfig::gpt_530b();
  EXPECT_DOUBLE_EQ(5.0 * mtnlg.a * mtnlg.s / mtnlg.h, 64.0);
}

TEST(PaperConstants, SelectiveRecomputeSavesSeventyAndSixtyFivePercent) {
  // §5: selective recomputation saves 70% (GPT-3) and 65% (MT-NLG) of
  // activation memory — the 5as/h / (34 + 5as/h) fraction.
  auto saving = [](const ModelConfig& cfg) {
    const double with_attn =
        memory::act_bytes_per_layer(cfg, Technique::kTensorSequence);
    const double without =
        memory::act_bytes_per_layer(cfg, Technique::kTensorSequenceSelective);
    return 1.0 - without / with_attn;
  };
  EXPECT_NEAR(saving(ModelConfig::gpt_175b()), 0.70, 0.01);
  EXPECT_NEAR(saving(ModelConfig::gpt_530b()), 0.65, 0.01);
}

TEST(PaperConstants, CombinedTechniquesGiveFiveFoldReduction) {
  // §6.1 / Fig 7: combined, the memory drops to under 20% of the
  // tensor-parallel baseline (~5x), about 2x of full recomputation.
  for (const auto& cfg : {ModelConfig::gpt_22b(), ModelConfig::gpt_175b(),
                          ModelConfig::gpt_530b(), ModelConfig::gpt_1t()}) {
    const double baseline =
        memory::act_bytes_per_layer(cfg, Technique::kTensorParallel);
    const double combined =
        memory::act_bytes_per_layer(cfg, Technique::kTensorSequenceSelective);
    const double full = memory::act_bytes_per_layer(cfg, Technique::kFullRecompute);
    // ~5x: Fig 7 reads "to under 20%"; the exact formula ratio is
    // 34/t / (10 + 24/t + 5as/ht), which lands at 16–21% across the
    // four models.
    EXPECT_LT(combined / baseline, 0.21) << cfg.name;
    EXPECT_GT(combined / baseline, 0.10) << cfg.name;
    // Each individual technique cuts roughly — not exactly — half
    // (Fig 7: the individual bars sit at ~50–67% across the models).
    const double seq_only =
        memory::act_bytes_per_layer(cfg, Technique::kTensorSequence);
    const double sel_only =
        memory::act_bytes_per_layer(cfg, Technique::kTensorSelective);
    EXPECT_LT(seq_only / baseline, 0.70) << cfg.name;
    EXPECT_GT(seq_only / baseline, 0.45) << cfg.name;
    EXPECT_LT(sel_only / baseline, 0.65) << cfg.name;
    EXPECT_GT(sel_only / baseline, 0.40) << cfg.name;
    // Combined is ~2x the full-recompute floor (paper: "~2x of the full
    // activation recomputation which is at 10%").
    EXPECT_LT(combined / full, 2.5) << cfg.name;
    EXPECT_GT(combined / full, 1.4) << cfg.name;
  }
}

TEST(PaperConstants, ParamCountsMatchModelNames) {
  EXPECT_NEAR(ModelConfig::gpt_22b().params_total() / 1e9, 22.0, 1.0);
  EXPECT_NEAR(ModelConfig::gpt_175b().params_total() / 1e9, 175.0, 5.0);
  EXPECT_NEAR(ModelConfig::gpt_530b().params_total() / 1e9, 530.0, 10.0);
  EXPECT_NEAR(ModelConfig::gpt_1t().params_total() / 1e12, 1.0, 0.03);
}

// ------------------------------------------------------------------
// Fig 9 / Appendix B: per-pipeline-rank profile.
// ------------------------------------------------------------------

TEST(PipelineMemoryProfile, MonotoneAndConsistentWithEq5) {
  ModelConfig cfg = ModelConfig::gpt_530b();
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.interleave_m = 1;  // plain 1F1B for the Fig 9 shape
  const auto profile =
      memory::per_pipeline_rank_memory(cfg, memory::technique_of(cfg));
  ASSERT_EQ(profile.size(), static_cast<size_t>(cfg.p));
  // In-flight microbatches decrease linearly along the pipeline.
  for (int r = 0; r + 1 < cfg.p; ++r) {
    EXPECT_GE(profile[static_cast<size_t>(r)].microbatches_in_flight,
              profile[static_cast<size_t>(r + 1)].microbatches_in_flight);
    EXPECT_GE(profile[static_cast<size_t>(r)].bytes_optimized,
              profile[static_cast<size_t>(r + 1)].bytes_optimized);
  }
  EXPECT_EQ(profile[0].microbatches_in_flight, cfg.p);
  // Rank 0 matches Eq 5 + its embedding masks.
  const double eq5 = memory::total_activation_bytes_first_stage(
      cfg, memory::technique_of(cfg), /*include_extras=*/false);
  const double embed = static_cast<double>(cfg.s) * cfg.b * cfg.h * cfg.p / cfg.t;
  EXPECT_NEAR(profile[0].bytes_optimized, eq5 + embed, 1.0);
}

TEST(PipelineMemoryProfile, DeallocationSavesSbhpOnRankZero) {
  // Appendix B: "the theoretical savings for this optimization on the
  // first pipeline stage is sbhp = 2.73 GB" (530B, 2 bytes/elem).
  ModelConfig cfg = ModelConfig::gpt_530b();
  const auto profile =
      memory::per_pipeline_rank_memory(cfg, Technique::kTensorSequenceSelective);
  const double saving = profile[0].bytes_unoptimized - profile[0].bytes_optimized;
  const double sbhp_bytes =
      2.0 * cfg.s * cfg.b * cfg.h * cfg.p;  // fp16 output tensors
  EXPECT_DOUBLE_EQ(saving, sbhp_bytes);
  EXPECT_NEAR(saving / (1024.0 * 1024.0 * 1024.0), 2.73, 0.01);
}

// ------------------------------------------------------------------
// Fig 1: model-state memory.
// ------------------------------------------------------------------

TEST(ModelStateMemory, SixteenBytesPerParam) {
  const ModelConfig cfg = ModelConfig::gpt_22b();
  const auto ms = memory::model_state_bytes_per_rank(cfg);
  const double n = memory::params_per_rank(cfg);
  EXPECT_DOUBLE_EQ(ms.total(), 16.0 * n);
}

TEST(ModelStateMemory, BaselineExceeds80GBbutPresentWorkFits) {
  // Fig 1's punchline: with tensor-parallel-only activations none of
  // the four models fit in an 80 GB A100; with sequence parallelism +
  // selective recomputation they all do.
  const double kA100 = 80.0 * 1024 * 1024 * 1024;
  for (auto cfg : {ModelConfig::gpt_22b(), ModelConfig::gpt_175b(),
                   ModelConfig::gpt_530b(), ModelConfig::gpt_1t()}) {
    const double state = memory::model_state_bytes_per_rank(cfg).total();
    const double baseline_act = memory::total_activation_bytes_first_stage(
        cfg, Technique::kTensorParallel);
    const double present_act = memory::total_activation_bytes_first_stage(
        cfg, Technique::kTensorSequenceSelective);
    EXPECT_GT(state + baseline_act, kA100) << cfg.name;
    EXPECT_LT(state + present_act, kA100) << cfg.name;
  }
}

}  // namespace
}  // namespace mls
