// Validates the paper's activation-memory formulas (§4, Table 2)
// BYTE-EXACTLY against the runtime MemoryTracker: for every parallel
// plan crossed with every recompute rung, the bytes autograd keeps
// alive at the end of a transformer layer's forward pass must equal
// the closed-form prediction, and the pool may hold no more than those
// bytes (at simulation storage width) plus the layer's output.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/static/budget.h"
#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "core/parallel_plan.h"
#include "memory/activation_model.h"
#include "memory/pool_allocator.h"
#include "memory/pressure.h"
#include "model/gpt.h"

namespace mls {
namespace {

using model::ModelConfig;

// What one transformer layer's forward pass leaves behind.
struct LayerBytes {
  int64_t major = -1;          // tracked major bytes (Table 2's accounting)
  int64_t saved = -1;          // all tracked saved bytes, minor included
  int64_t pooled_growth = -1;  // pooled in-use bytes the forward added
  int64_t output = -1;         // the layer output's storage bytes
  int64_t buffers = -1;        // live pooled buffers the forward added
};

// Measures rank 0's bytes at the end of one transformer layer's
// forward pass under the given configuration.
LayerBytes measure_layer(const ModelConfig& cfg) {
  LayerBytes measured;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    auto& mt = MemoryTracker::instance();
    mt.reset();
    const core::ParallelEnv env = model::make_env(cfg, c);

    Rng master(cfg.seed);
    model::TransformerLayer layer(env, cfg, 0, master);

    Rng drng(5);
    ag::Var x(Tensor::randn(Shape{{cfg.s_local(), cfg.b, cfg.h}}, drng), true);
    const memory::AllocStats s0 = mt.allocator_stats();
    ag::Var y = layer.forward(x, env);
    const memory::AllocStats s1 = mt.allocator_stats();
    LayerBytes bytes{mt.current_major_bytes(), mt.current_bytes(),
                     s1.bytes_in_use - s0.bytes_in_use, y.value().storage_bytes(),
                     (s1.allocs - s1.frees) - (s0.allocs - s0.frees)};
    // Drain the graph so every rank ends clean.
    ag::backward(y, Tensor::full(y.value().shape(), 1.f));
    MLS_CHECK_EQ(mt.current_bytes(), 0);
    if (c.rank() == 0) measured = bytes;
  });
  return measured;
}

// (a, h_per_head, s, b, t): property sweep over shapes and widths.
using ShapeParam = std::tuple<int64_t, int64_t, int64_t, int64_t, int>;

constexpr auto kTp = core::PlanKind::kTensorParallel;
constexpr auto kTpSp = core::PlanKind::kTensorSequence;
constexpr auto kFolded = core::PlanKind::kFoldedTsp;
constexpr auto kNone = core::Recompute::kNone;
constexpr auto kSel = core::Recompute::kSelective;
constexpr auto kFull = core::Recompute::kFull;

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

  // One (plan, recompute) cell: measured bytes == the plan's formula.
  void check(core::PlanKind plan, core::Recompute rc) const {
    ModelConfig cfg = base_config();
    cfg.set_plan(plan);
    cfg.recompute = rc;
    if (cfg.plan().sequence_sharded() && cfg.s % cfg.t != 0) GTEST_SKIP();
    const double expect = memory::act_bytes_per_layer(cfg, {plan, rc});
    EXPECT_EQ(measure_layer(cfg).major, static_cast<int64_t>(expect));
  }

  // One cell's pool: the graph holds gradient records, not values, so
  // a forward leaves in the pool only what backward reads plus the
  // output. fp32 storage is 2x the logical fp16 bytes (1-byte masks
  // and fp32 layer-norm stats are 1x), and each live buffer may round
  // up by one 512-B allocator granule.
  void check_pooled(core::PlanKind plan, core::Recompute rc) const {
    ModelConfig cfg = base_config();
    cfg.set_plan(plan);
    cfg.recompute = rc;
    if (cfg.plan().sequence_sharded() && cfg.s % cfg.t != 0) return;
    const LayerBytes m = measure_layer(cfg);
    EXPECT_LE(m.pooled_growth, 2 * m.saved + m.output + 512 * m.buffers)
        << "plan=" << core::plan_kind_name(plan)
        << " rc=" << core::recompute_name(rc);
  }
};

// Eq 1, written out here rather than taken from the plan code.
TEST_P(Table2Validation, NoParallelism) {
  const ModelConfig cfg = base_config();
  if (cfg.t != 1) GTEST_SKIP();
  const int64_t sbh = cfg.s * cfg.b * cfg.h;
  EXPECT_EQ(measure_layer(cfg).major, 34 * sbh + 5 * cfg.a * cfg.s * cfg.s * cfg.b);
}

// The 3x3 grid of plans x recompute rungs.
TEST_P(Table2Validation, TensorParallel) { check(kTp, kNone); }
TEST_P(Table2Validation, TensorParallelSelectiveRecompute) { check(kTp, kSel); }
TEST_P(Table2Validation, FullRecompute) { check(kTp, kFull); }
TEST_P(Table2Validation, TensorSequenceParallel) { check(kTpSp, kNone); }
TEST_P(Table2Validation, TensorSequenceSelective) { check(kTpSp, kSel); }
TEST_P(Table2Validation, TensorSequenceFullRecompute) { check(kTpSp, kFull); }
TEST_P(Table2Validation, FoldedTsp) { check(kFolded, kNone); }
TEST_P(Table2Validation, FoldedTspSelective) { check(kFolded, kSel); }
TEST_P(Table2Validation, FoldedTspFullRecompute) { check(kFolded, kFull); }

TEST_P(Table2Validation, PooledGrowthIsWhatBackwardReads) {
  for (const auto plan : {kTp, kTpSp, kFolded}) {
    for (const auto rc : {kNone, kSel, kFull}) check_pooled(plan, rc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Table2Validation,
    ::testing::Values(ShapeParam{4, 8, 16, 2, 1},   // serial
                      ShapeParam{4, 8, 16, 2, 2},   // t=2
                      ShapeParam{4, 8, 16, 2, 4},   // t=4
                      ShapeParam{8, 4, 16, 1, 4},   // many heads
                      ShapeParam{2, 16, 8, 3, 2},   // wide heads, odd batch
                      ShapeParam{8, 8, 32, 1, 8},   // long sequence, t=8
                      ShapeParam{8, 8, 32, 2, 4}),  // paper_report Table 2
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
  for (const auto plan : {kTp, kTpSp, kFolded}) {
    for (const auto rc : {kNone, kSel, kFull}) {
      ModelConfig cfg = ModelConfig::tiny(2, 2);
      cfg.set_plan(plan);
      cfg.recompute = rc;
      const double expect =
          memory::total_activation_bytes_first_stage(cfg, {plan, rc}, true);
      EXPECT_EQ(measure_model_bytes(cfg), static_cast<int64_t>(expect))
          << "plan=" << core::plan_kind_name(plan)
          << " rc=" << core::recompute_name(rc);
    }
  }
}

// The governor's offline forecast charges each rung what the runtime
// stores: at full recompute a sequence-sharded plan keeps 2sbh/t.
TEST(TotalActivationMemory, PressureForecastFullRungMatchesMeasurement) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.set_plan(kTpSp);
  memory::PressureConfig pressure;
  pressure.budget_bytes = int64_t{1} << 30;
  const auto f = verify::forecast_pressure(cfg, pressure);
  cfg.recompute = kFull;
  const double activations =
      f.resident_bytes[2] - memory::model_state_bytes_per_rank(cfg).total();
  EXPECT_EQ(static_cast<int64_t>(activations), measure_model_bytes(cfg));
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
// The recompute rungs' backward: the attention core is streamed one
// (batch, head) slice at a time, so the s² state never exists for more
// than one slice, and nothing of it is charged to the tracker.
// ------------------------------------------------------------------

// A t=2 layer with long s and small h, so the core's s² terms dwarf
// every sbh-scale buffer; a sets the number of slices.
ModelConfig long_s_config(core::PlanKind plan, core::Recompute rc, int64_t a) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.a = a;
  cfg.h = 32;
  cfg.s = 128;
  cfg.b = 2;
  cfg.v = 64;
  cfg.set_plan(plan);
  cfg.recompute = rc;
  return cfg;
}

// Rank 0's pooled in-use growth over one layer's backward, and the
// bound it must keep: one slice's workspace (scores, probabilities and
// dropped probabilities in fp32, the 1-byte mask), the gradients the
// backward leaves (params and the layer input), the layer's activations
// outside the core at fp32 width (the kFull replay re-saves them, the
// other rungs recompute or re-gather some; tp's selective Table-2 row
// is the widest set any plan keeps), and one 512-B granule per buffer
// the backward allocates.
struct BackwardGrowth {
  int64_t growth = -1;
  int64_t bound = -1;
};

BackwardGrowth measure_layer_backward(const ModelConfig& cfg) {
  BackwardGrowth out;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    auto& mt = MemoryTracker::instance();
    mt.reset();
    const core::ParallelEnv env = model::make_env(cfg, c);
    Rng master(cfg.seed);
    model::TransformerLayer layer(env, cfg, 0, master);
    Rng drng(5);
    ag::Var x(Tensor::randn(Shape{{cfg.s_local(), cfg.b, cfg.h}}, drng), true);
    ag::Var y = layer.forward(x, env);
    const Tensor dy = Tensor::full(y.value().shape(), 1.f);
    mt.reset_physical_peak();
    const memory::AllocStats s0 = mt.allocator_stats();
    ag::backward(y, dy);
    const memory::AllocStats s1 = mt.allocator_stats();
    int64_t grads = x.grad().storage_bytes();
    for (const auto& p : layer.params()) grads += p.grad().storage_bytes();
    const int64_t slice_workspace = (3 * 4 + 1) * cfg.s * cfg.s;
    const auto outside_core = static_cast<int64_t>(
        memory::act_bytes_per_layer(cfg, {kTp, kSel}));
    if (c.rank() == 0) {
      out.growth = s1.in_use_peak - s0.bytes_in_use;
      out.bound = slice_workspace + grads + 2 * outside_core +
                  512 * (s1.allocs - s0.allocs);
    }
  });
  return out;
}

TEST(RecomputeBackwardMemory, LayerGrowthIsOneSliceNotHeads) {
  for (const auto plan : {kTp, kTpSp, kFolded}) {
    for (const auto rc : {kSel, kFull}) {
      const BackwardGrowth few =
          measure_layer_backward(long_s_config(plan, rc, 2));
      const BackwardGrowth many =
          measure_layer_backward(long_s_config(plan, rc, 8));
      const std::string cell = std::string("plan=") +
                               core::plan_kind_name(plan) +
                               " rc=" + core::recompute_name(rc);
      EXPECT_LE(few.growth, few.bound) << cell << " a=2";
      EXPECT_LE(many.growth, many.bound) << cell << " a=8";
      // Four times the slices, the same transient.
      EXPECT_EQ(many.growth, few.growth) << cell;
    }
  }
}

// Selective recomputation saves nothing in backward: over a p=1 step,
// the tracker's logical peak is what the forward left saved (major and
// minor), in every plan.
TEST(RecomputeBackwardMemory, SelectiveStepLogicalPeakIsEndOfForward) {
  for (const auto plan : {kTp, kTpSp, kFolded}) {
    const ModelConfig cfg = long_s_config(plan, kSel, 8);
    Rng trng(9);
    std::vector<int64_t> tokens(static_cast<size_t>(cfg.s * cfg.b));
    std::vector<int64_t> targets(tokens.size());
    const auto v = static_cast<uint64_t>(cfg.v);
    for (auto& t : tokens) t = static_cast<int64_t>(trng.next_below(v));
    for (auto& t : targets) t = static_cast<int64_t>(trng.next_below(v));
    spmd::run(cfg.t, [&](comm::Comm& c) {
      auto& mt = MemoryTracker::instance();
      mt.reset();
      model::GPTModel m(cfg, c);
      ag::Var loss = m.forward_loss(tokens, targets);
      const int64_t end_of_forward = mt.current_bytes();
      ag::backward(loss);
      EXPECT_EQ(mt.peak_bytes(), end_of_forward)
          << "plan=" << core::plan_kind_name(plan) << " rank " << c.rank();
    });
  }
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
    const double with_attn = memory::act_bytes_per_layer(cfg, {kTpSp, kNone});
    const double without = memory::act_bytes_per_layer(cfg, {kTpSp, kSel});
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
    const double baseline = memory::act_bytes_per_layer(cfg, {kTp, kNone});
    const double combined = memory::act_bytes_per_layer(cfg, {kTpSp, kSel});
    // The paper's replicated sbh(2) floor.
    const double full = memory::act_bytes_per_layer(cfg, {kTp, kFull});
    // ~5x: Fig 7 reads "to under 20%"; the exact formula ratio is
    // 34/t / (10 + 24/t + 5as/ht), which lands at 16–21% across the
    // four models.
    EXPECT_LT(combined / baseline, 0.21) << cfg.name;
    EXPECT_GT(combined / baseline, 0.10) << cfg.name;
    // Each individual technique cuts roughly — not exactly — half
    // (Fig 7: the individual bars sit at ~50–67% across the models).
    const double seq_only = memory::act_bytes_per_layer(cfg, {kTpSp, kNone});
    const double sel_only = memory::act_bytes_per_layer(cfg, {kTp, kSel});
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
  const auto profile = memory::per_pipeline_rank_memory(cfg, {kTpSp, kSel});
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
    const double baseline_act =
        memory::total_activation_bytes_first_stage(cfg, {kTp, kNone});
    const double present_act =
        memory::total_activation_bytes_first_stage(cfg, {kTpSp, kSel});
    EXPECT_GT(state + baseline_act, kA100) << cfg.name;
    EXPECT_LT(state + present_act, kA100) << cfg.name;
  }
}

}  // namespace
}  // namespace mls
