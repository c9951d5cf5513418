// ParallelPlan regression tests: the strategy objects that own a
// layer's collective wiring (core/parallel_plan.h).
//
// Two properties are load-bearing:
//   1. A plan kind names exactly one plan singleton, and a default
//      ModelConfig / ParallelEnv run the TP plan. (TP and TP+SP match
//      the serial reference in test_core.cpp's LayerEquivalence and
//      ModelEquivalence suites.)
//   2. The folded-TSP plan (arXiv 2604.26294: pointwise-recomputable
//      activations folded into their consumer GEMMs on the TP+SP
//      wiring) is an exact optimization — bitwise-equal training to
//      TP+SP with identical collective traffic, only the activation
//      ledger differs (asserted byte-exactly in test_memory.cpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/spmd.h"
#include "common/memtracker.h"
#include "core/parallel_plan.h"
#include "train/trainer.h"

namespace mls {
namespace {

using core::PlanKind;
using model::ModelConfig;

// ------------------------------------------------------ plan registry

TEST(PlanRegistry, NamesRoundTripThroughParser) {
  for (PlanKind k : {PlanKind::kTensorParallel, PlanKind::kTensorSequence,
                     PlanKind::kFoldedTsp}) {
    EXPECT_EQ(core::plan_kind_from_string(core::plan_kind_name(k)), k);
    EXPECT_EQ(core::plan_for(k).kind(), k);
  }
  // MLS_PLAN accepts the short spellings too.
  EXPECT_EQ(core::plan_kind_from_string("sp"), PlanKind::kTensorSequence);
  EXPECT_EQ(core::plan_kind_from_string("folded"), PlanKind::kFoldedTsp);
  EXPECT_THROW(core::plan_kind_from_string("auto"), Error);
  EXPECT_THROW(core::plan_kind_from_string("ring_attention"), Error);
  EXPECT_FALSE(core::tp_plan().sequence_sharded());
  EXPECT_TRUE(core::sp_plan().sequence_sharded());
  // Folded TSP rides the SP wiring: same sharding, same comm schedule.
  EXPECT_TRUE(core::folded_tsp_plan().sequence_sharded());
  // Nothing chosen means the TP plan.
  EXPECT_EQ(&ModelConfig{}.plan(), &core::tp_plan());
  EXPECT_EQ(&core::ParallelEnv{}.plan(), &core::tp_plan());
}

TEST(PlanRegistry, SetPlanKeepsConfigConsistent) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.set_plan(PlanKind::kFoldedTsp);
  EXPECT_EQ(&cfg.plan(), &core::folded_tsp_plan());
  EXPECT_NO_THROW(cfg.validate());
  // A sequence-sharded plan needs s divisible by t.
  cfg.s = 15;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.set_plan(PlanKind::kTensorParallel);
  EXPECT_EQ(&cfg.plan(), &core::tp_plan());
  EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------- bit-identity regression

struct TrainRun {
  std::vector<float> losses;
  std::vector<float> final_params;  // rank 0's shard, flattened
  int64_t tp_bytes_received = 0;    // rank 0
  int64_t tp_all_reduces = 0;
  int64_t tp_all_gathers = 0;
  int64_t tp_reduce_scatters = 0;
};

// A short t=2 training run (4 layers, selective recompute exercised by
// the SP arms) that records everything the plan could possibly touch.
TrainRun train(ModelConfig cfg, core::Recompute rc = core::Recompute::kNone) {
  cfg.a = 4;
  cfg.h = 32;
  cfg.s = 16;
  cfg.v = 64;
  cfg.b = 2;
  cfg.global_batch = 2 * cfg.b;
  cfg.recompute = rc;
  cfg.validate();

  data::MarkovDataset ds(cfg.v, 1.0, 7);
  std::vector<std::vector<data::Batch>> steps_data;
  for (int i = 0; i < 6; ++i) {
    steps_data.push_back(data::make_microbatches(ds, cfg));
  }

  TrainRun out;
  spmd::run(cfg.t, [&](comm::Comm& world) {
    MemoryTracker::instance().reset();
    train::TrainerOptions opts;
    opts.lr = 0.02f;
    opts.use_adam = false;
    train::Trainer trainer(cfg, world, opts);
    std::vector<float> losses;
    for (const auto& batch : steps_data) {
      losses.push_back(trainer.step(batch).loss);
    }
    if (world.rank() == 0) {
      out.losses = losses;
      for (const ag::Var& p : trainer.engine().params()) {
        const Tensor& v = p.value();
        out.final_params.insert(out.final_params.end(), v.data(),
                                v.data() + v.numel());
      }
      const auto& st = trainer.engine().tp_comm().stats();
      out.tp_bytes_received = st.bytes_received;
      out.tp_all_reduces = st.all_reduce_count;
      out.tp_all_gathers = st.all_gather_count;
      out.tp_reduce_scatters = st.reduce_scatter_count;
    }
  });
  return out;
}

void expect_bitwise_equal(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]) << "loss diverged at step " << i;
  }
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i])
        << "parameter diverged at flat index " << i;
  }
  EXPECT_EQ(a.tp_bytes_received, b.tp_bytes_received);
  EXPECT_EQ(a.tp_all_reduces, b.tp_all_reduces);
  EXPECT_EQ(a.tp_all_gathers, b.tp_all_gathers);
  EXPECT_EQ(a.tp_reduce_scatters, b.tp_reduce_scatters);
}

TEST(PlanBitIdentity, FoldedTspMatchesTpSpExactly) {
  // The fused nodes recompute GeLU / softmax-dropout pointwise in
  // backward instead of saving them; every float and every collective
  // must be unchanged vs the TP+SP plan.
  ModelConfig sp_cfg = ModelConfig::tiny(2, 4);
  sp_cfg.set_plan(PlanKind::kTensorSequence);
  ModelConfig folded_cfg = sp_cfg;
  folded_cfg.set_plan(PlanKind::kFoldedTsp);
  expect_bitwise_equal(train(sp_cfg), train(folded_cfg));
  // And again under selective recompute (checkpoint replay drives the
  // fused attention core a second time per backward).
  expect_bitwise_equal(train(sp_cfg, core::Recompute::kSelective),
                       train(folded_cfg, core::Recompute::kSelective));
}

}  // namespace
}  // namespace mls
