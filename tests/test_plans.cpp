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
//   3. The streamed attention core the recompute rungs run is bitwise
//      the materialized core: values and Q/K/V gradients, at every
//      slice count, shape, mask and kernel thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/node.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "core/env.h"
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
  // And again under selective recompute (both plans stream the
  // attention core there; the fused MLP node still differs).
  expect_bitwise_equal(train(sp_cfg, core::Recompute::kSelective),
                       train(folded_cfg, core::Recompute::kSelective));
}

// ------------------------------------------------ streamed attention core

// RAII Env override so a failing EXPECT cannot leak the setting into
// later tests.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    core::Env::set(name_, value);
  }
  ~ScopedEnv() { core::Env::clear(name_); }

 private:
  std::string name_;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// ctx and dq, dk, dv of one attention-core path.
struct CoreResult {
  Tensor ctx, dq, dk, dv;
};

enum class CorePath { kUnfused, kFolded, kStreamed, kStreamedPrefetched };

CoreResult run_core(CorePath path, const Tensor& q0, const Tensor& k0,
                    const Tensor& v0, const Tensor& grad,
                    const core::AttnCoreDims& d) {
  ag::Var q(q0.clone(), true), k(k0.clone(), true), v(v0.clone(), true);
  ag::Var ctx;
  switch (path) {
    case CorePath::kUnfused: {
      // The materialized chain, with its mask coordinates written out
      // here rather than taken from AttnCoreDims.
      const int64_t ss = d.s_full * d.s_full;
      ops::IndexMap map;
      map.dims = {d.batch, d.heads_local, d.s_full, d.s_full};
      map.strides = {d.heads_total * ss, ss, d.s_full, 1};
      map.base = d.rank * d.heads_local * ss;
      ag::Var probs =
          ag::scaled_softmax(ag::bmm(q, k, /*trans_b=*/true), d.alpha, d.causal);
      ctx = ag::bmm(ag::dropout(probs, d.dropout_p, d.seed, map), v);
      break;
    }
    case CorePath::kFolded:
      ctx = core::folded_tsp_plan().attention_core(q, k, v, d);
      break;
    case CorePath::kStreamed:
    case CorePath::kStreamedPrefetched:
      ctx = core::streamed_attention_core(q, k, v, d);
      if (path == CorePath::kStreamedPrefetched) {
        ag::Node* node = ctx.record()->grad_fn.get();
        EXPECT_TRUE(node->prefetchable());
        node->prefetch();
        node->prefetch();  // idempotent
      }
      break;
  }
  CoreResult r{ctx.value().clone(), {}, {}, {}};
  ag::backward(ctx, grad.clone());
  r.dq = q.grad().clone();
  r.dk = k.grad().clone();
  r.dv = v.grad().clone();
  return r;
}

// The streamed core against the materialized unfused chain and the
// folded plan's fused node: every slice count (batch > 1 and rank > 0,
// so a wrong slice base draws a wrong mask), odd and tile-straddling
// s, causal or not, dropout on or off, at 1, 2 and 4 kernel threads
// against the single-thread unfused reference. s = 128 with d = 32 is
// the first shape whose per-slice GEMMs split across threads.
TEST(StreamedAttentionCore, BitwiseEqualToMaterializedCore) {
  struct Slices {
    int64_t batch, heads_local;
  };
  const Slices slice_grid[] = {{1, 1}, {3, 1}, {2, 4}};  // nb = 1, 3, 8
  for (const Slices sl : slice_grid) {
    for (const int64_t s : {1, 7, 33, 64, 128}) {
      for (const int64_t hd : {4, 32}) {
        for (const bool causal : {false, true}) {
          for (const float p : {0.0f, 0.1f}) {
            core::AttnCoreDims d;
            d.heads_local = sl.heads_local;
            d.heads_total = 2 * sl.heads_local;  // rank 1 of t = 2
            d.rank = 1;
            d.batch = sl.batch;
            d.s_full = s;
            d.alpha = 1.0f / std::sqrt(static_cast<float>(hd));
            d.causal = causal;
            d.dropout_p = p;
            d.seed = 77;
            const Shape shape{{sl.batch * sl.heads_local, s, hd}};
            Rng rng(static_cast<uint64_t>(1000 * s + hd));
            const Tensor q = Tensor::randn(shape, rng);
            const Tensor k = Tensor::randn(shape, rng);
            const Tensor v = Tensor::randn(shape, rng);
            const Tensor g = Tensor::randn(shape, rng);
            CoreResult ref;
            {
              ScopedEnv one("MLS_KERNEL_THREADS", "1");
              ref = run_core(CorePath::kUnfused, q, k, v, g, d);
            }
            for (const char* nt : {"1", "2", "4"}) {
              ScopedEnv threads("MLS_KERNEL_THREADS", nt);
              for (const CorePath path :
                   {CorePath::kUnfused, CorePath::kFolded, CorePath::kStreamed,
                    CorePath::kStreamedPrefetched}) {
                const CoreResult r = run_core(path, q, k, v, g, d);
                const std::string where =
                    "nb=" + std::to_string(shape.dim(0)) +
                    " s=" + std::to_string(s) + " d=" + std::to_string(hd) +
                    " causal=" + std::to_string(causal) +
                    " p=" + std::to_string(p) + " threads=" + nt +
                    " path=" + std::to_string(static_cast<int>(path));
                EXPECT_TRUE(bitwise_equal(r.ctx, ref.ctx)) << "ctx " << where;
                EXPECT_TRUE(bitwise_equal(r.dq, ref.dq)) << "dq " << where;
                EXPECT_TRUE(bitwise_equal(r.dk, ref.dk)) << "dk " << where;
                EXPECT_TRUE(bitwise_equal(r.dv, ref.dv)) << "dv " << where;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mls
