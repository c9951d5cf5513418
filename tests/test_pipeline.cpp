// Pipeline-parallelism tests: schedule structure (1F1B / GPipe /
// interleaved), numeric equivalence of pipelined training against the
// serial reference (including combined tensor+sequence parallelism and
// selective recomputation), and the Appendix B/C optimizations.
#include <gtest/gtest.h>

#include <cstdint>

#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "memory/activation_model.h"
#include "optim/optim.h"
#include "pipeline/executor.h"

namespace mls {
namespace {

using model::ModelConfig;
using pipeline::build_schedule;
using pipeline::max_in_flight;
using pipeline::Op;
using pipeline::OpType;
using pipeline::PipelineEngine;
using pipeline::PipelineOptions;
using pipeline::Schedule;

// ------------------------------------------------------ schedule shape

TEST(Schedules, AllSchedulesAreStructurallyValid) {
  for (int p : {1, 2, 4, 8}) {
    for (int n : {1, 2, 4, 8, 16}) {
      for (int rank = 0; rank < p; ++rank) {
        pipeline::validate_schedule(
            build_schedule(Schedule::kGPipe, p, rank, n, 1), n, 1);
        pipeline::validate_schedule(
            build_schedule(Schedule::k1F1B, p, rank, n, 1), n, 1);
        for (int m : {2, 3}) {
          if (n % p != 0) continue;
          pipeline::validate_schedule(
              build_schedule(Schedule::kInterleaved1F1B, p, rank, n, m), n, m);
        }
      }
    }
  }
}

TEST(Schedules, OneFOneBInFlightIsPMinusRank) {
  // §4.2.3 / Appendix C: stage S keeps max(0, p - S) microbatches in
  // flight (capped by the number of microbatches) — this is why the
  // first stage stores p·L/p = L layers of activations (Eq 5).
  for (int p : {2, 4, 8}) {
    for (int n : {4, 8, 32}) {
      for (int rank = 0; rank < p; ++rank) {
        const auto ops = build_schedule(Schedule::k1F1B, p, rank, n, 1);
        EXPECT_EQ(max_in_flight(ops), std::min(p - rank, n))
            << "p=" << p << " n=" << n << " rank=" << rank;
      }
    }
  }
}

TEST(Schedules, GPipeInFlightIsAllMicrobatches) {
  for (int n : {2, 8}) {
    const auto ops = build_schedule(Schedule::kGPipe, 4, 0, n, 1);
    EXPECT_EQ(max_in_flight(ops), n);
  }
}

TEST(Schedules, InterleavedInFlightMatchesPaperFactor) {
  // §4.2.3: the interleaved schedule stores L(1 + (p-1)/(p·m)) layers
  // on the first rank. In chunk units (each chunk = L/(p·m) layers)
  // that is p·m + p - 1 in-flight chunks.
  for (int p : {2, 4, 8}) {
    for (int m : {2, 3}) {
      const int n = 2 * p;  // enough microbatches to reach steady state
      const auto ops = build_schedule(Schedule::kInterleaved1F1B, p, 0, n, m);
      EXPECT_EQ(max_in_flight(ops), p * m + p - 1) << "p=" << p << " m=" << m;
      const double layers_factor =
          static_cast<double>(max_in_flight(ops)) / (p * m);
      EXPECT_DOUBLE_EQ(layers_factor,
                       1.0 + static_cast<double>(p - 1) / (p * m));
    }
  }
}

TEST(Schedules, OneF1BIsGPipeForSingleStage) {
  const auto a = build_schedule(Schedule::k1F1B, 1, 0, 4, 1);
  // p=1: no warmup, strict 1F1B alternation.
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a[0], (Op{OpType::kForward, 0, 0}));
  EXPECT_EQ(a[1], (Op{OpType::kBackward, 0, 0}));
  EXPECT_EQ(max_in_flight(a), 1);
}

// ------------------------------------------------- numeric equivalence

struct Batch {
  std::vector<std::vector<int64_t>> tokens, targets;
};

Batch make_batch(const ModelConfig& cfg) {
  Rng rng(2026);
  Batch b;
  for (int64_t mb = 0; mb < cfg.total_microbatches(); ++mb) {
    std::vector<int64_t> tok(static_cast<size_t>(cfg.s * cfg.b));
    std::vector<int64_t> tgt(tok.size());
    for (auto& x : tok) x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    for (auto& x : tgt) x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    b.tokens.push_back(std::move(tok));
    b.targets.push_back(std::move(tgt));
  }
  return b;
}

// Serial reference: whole model on one rank, microbatches in sequence,
// loss averaged, SGD steps.
std::vector<float> serial_losses(ModelConfig cfg, const Batch& batch, int steps) {
  cfg.t = 1;
  cfg.p = 1;
  cfg.interleave_m = 1;
  cfg.set_plan(core::PlanKind::kTensorParallel);
  cfg.recompute = core::Recompute::kNone;
  std::vector<float> losses;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    optim::Sgd opt(m.params(), 0.05f);
    const int64_t n = cfg.microbatches();
    for (int step = 0; step < steps; ++step) {
      opt.zero_grad();
      double loss_sum = 0;
      for (int64_t mb = 0; mb < n; ++mb) {
        m.set_microbatch(step * n + mb);
        ag::Var loss = m.forward_loss(batch.tokens[static_cast<size_t>(mb)],
                                      batch.targets[static_cast<size_t>(mb)]);
        loss_sum += loss.item();
        ag::backward(loss, Tensor::scalar(1.0f / static_cast<float>(n)));
      }
      opt.step();
      losses.push_back(static_cast<float>(loss_sum / static_cast<double>(n)));
    }
  });
  return losses;
}

std::vector<float> pipeline_losses(const ModelConfig& cfg, const Batch& batch,
                                   int steps, PipelineOptions opts) {
  std::vector<float> losses;
  spmd::run(cfg.t * cfg.p * cfg.d, [&](comm::Comm& world) {
    MemoryTracker::instance().reset();
    PipelineEngine engine(cfg, world, opts);
    optim::Sgd opt(engine.params(), 0.05f);
    std::vector<float> local;
    for (int step = 0; step < steps; ++step) {
      opt.zero_grad();
      auto stats = engine.run_iteration(batch.tokens, batch.targets, step);
      opt.step();
      local.push_back(stats.loss);
      MLS_CHECK_EQ(MemoryTracker::instance().current_bytes(), 0);
    }
    if (world.rank() == 0) losses = local;
  });
  return losses;
}

struct PipeCase {
  int t, p, m;
  // A 4-byte flag, not bool: gtest prints a parameter's raw bytes into
  // the test name, and a bool here would leave three bytes of
  // uninitialised padding in it, changing the name from run to run.
  std::uint32_t sp;
  core::Recompute rc;
  Schedule sched;
};
static_assert(sizeof(PipeCase) == 3 * sizeof(int) + sizeof(std::uint32_t) +
                                      sizeof(core::Recompute) +
                                      sizeof(Schedule),
              "PipeCase must have no padding bytes");

class PipelineEquivalence : public ::testing::TestWithParam<PipeCase> {};

TEST_P(PipelineEquivalence, LossTrajectoryMatchesSerial) {
  const auto pc = GetParam();
  ModelConfig cfg = ModelConfig::tiny(pc.t, /*layers=*/4);
  cfg.p = pc.p;
  cfg.interleave_m = pc.m;
  cfg.set_plan(pc.sp ? core::PlanKind::kTensorSequence
                     : core::PlanKind::kTensorParallel);
  cfg.recompute = pc.rc;
  cfg.global_batch = 4 * cfg.b;  // 4 microbatches
  cfg.validate();

  const Batch batch = make_batch(cfg);
  const int steps = 3;
  const auto ref = serial_losses(cfg, batch, steps);
  PipelineOptions opts;
  opts.schedule = pc.sched;
  const auto got = pipeline_losses(cfg, batch, steps, opts);

  ASSERT_EQ(ref.size(), got.size());
  for (int i = 0; i < steps; ++i) {
    EXPECT_NEAR(got[static_cast<size_t>(i)], ref[static_cast<size_t>(i)],
                3e-3f * (1 + i))
        << "step " << i;
  }
  EXPECT_LT(ref.back(), ref.front());  // learning
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PipelineEquivalence,
    ::testing::Values(
        // Pure pipeline parallelism.
        PipeCase{1, 2, 1, false, core::Recompute::kNone, Schedule::k1F1B},
        PipeCase{1, 4, 1, false, core::Recompute::kNone, Schedule::k1F1B},
        PipeCase{1, 2, 1, false, core::Recompute::kNone, Schedule::kGPipe},
        // Pipeline + recomputation.
        PipeCase{1, 2, 1, false, core::Recompute::kFull, Schedule::k1F1B},
        PipeCase{1, 2, 1, false, core::Recompute::kSelective, Schedule::k1F1B},
        // Pipeline + tensor parallel (+ sequence parallel + selective):
        // the paper's full configuration.
        PipeCase{2, 2, 1, false, core::Recompute::kNone, Schedule::k1F1B},
        PipeCase{2, 2, 1, true, core::Recompute::kSelective, Schedule::k1F1B},
        // Interleaved schedules.
        PipeCase{1, 2, 2, false, core::Recompute::kNone,
                 Schedule::kInterleaved1F1B},
        PipeCase{2, 2, 2, true, core::Recompute::kSelective,
                 Schedule::kInterleaved1F1B}),
    [](const ::testing::TestParamInfo<PipeCase>& info) {
      const auto& c = info.param;
      return "t" + std::to_string(c.t) + "_p" + std::to_string(c.p) + "_m" +
             std::to_string(c.m) + (c.sp ? "_sp" : "") + "_" +
             core::recompute_name(c.rc) + "_" +
             (c.sched == Schedule::kGPipe
                  ? "gpipe"
                  : c.sched == Schedule::k1F1B ? "1f1b" : "interleaved");
    });

// -------------------------------------------- overlapped recomputation

TEST(OverlapRecompute, PipelineLossBitIdentical) {
  // The paper's full configuration (t=2, p=2, SP, selective) with
  // overlap_recompute: nonblocking tp collectives, isend boundary
  // sends, and replay prefetch must leave every step's loss bit-exact.
  ModelConfig cfg = ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 4 * cfg.b;
  cfg.validate();
  const Batch batch = make_batch(cfg);
  const int steps = 2;

  PipelineOptions serial;
  const auto ref = pipeline_losses(cfg, batch, steps, serial);
  PipelineOptions overlapped;
  overlapped.overlap_recompute = true;
  const auto got = pipeline_losses(cfg, batch, steps, overlapped);
  ASSERT_EQ(ref.size(), got.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "step " << i;  // bitwise, not approx
  }
}

// ------------------------------------------------ Appendix B (dealloc)

TEST(AppendixB, OutputDeallocationReducesPeakWithoutChangingMath) {
  ModelConfig cfg = ModelConfig::tiny(1, 4);
  cfg.p = 2;
  cfg.global_batch = 4 * cfg.b;
  const Batch batch = make_batch(cfg);

  auto run = [&](bool dealloc) {
    float loss = 0;
    int64_t peak = 0;
    spmd::run(cfg.p, [&](comm::Comm& world) {
      MemoryTracker::instance().reset();
      PipelineOptions opts;
      opts.deallocate_outputs = dealloc;
      PipelineEngine engine(cfg, world, opts);
      auto stats = engine.run_iteration(batch.tokens, batch.targets, 0);
      if (world.rank() == 0) {  // pipeline rank 0: worst case
        loss = stats.loss;
        peak = stats.peak_activation_bytes;
      }
    });
    return std::pair<float, int64_t>(loss, peak);
  };

  const auto [loss_opt, peak_opt] = run(true);
  const auto [loss_unopt, peak_unopt] = run(false);
  EXPECT_FLOAT_EQ(loss_opt, loss_unopt);
  // Appendix B: the saving on the first stage is 2·s·b·h per in-flight
  // microbatch (here: in-flight = p = 2 at peak).
  EXPECT_GT(peak_unopt, peak_opt);
  const int64_t sbh2 = 2 * cfg.s * cfg.b * cfg.h;
  EXPECT_GE(peak_unopt - peak_opt, sbh2);  // at least one output held
}

// ------------------------------------------ Appendix C (mb-level ckpt)

TEST(AppendixC, BudgetControlsStoredMicrobatchesWithoutChangingMath) {
  ModelConfig cfg = ModelConfig::tiny(1, 4);
  cfg.p = 2;
  cfg.global_batch = 4 * cfg.b;
  cfg.recompute = core::Recompute::kFull;  // baseline: checkpoint everything
  const Batch batch = make_batch(cfg);

  auto run = [&](int64_t budget) {
    float loss = 0;
    int64_t stored = 0, ckpt = 0, peak = 0;
    spmd::run(cfg.p, [&](comm::Comm& world) {
      MemoryTracker::instance().reset();
      PipelineOptions opts;
      opts.microbatch_store_budget = budget;
      PipelineEngine engine(cfg, world, opts);
      auto stats = engine.run_iteration(batch.tokens, batch.targets, 0);
      if (world.rank() == 0) {
        loss = stats.loss;
        stored = stats.microbatches_stored_full;
        ckpt = stats.microbatches_checkpointed;
        peak = stats.peak_activation_bytes;
      }
    });
    return std::tuple<float, int64_t, int64_t, int64_t>(loss, stored, ckpt, peak);
  };

  // No budget limit handling: -1 disables the policy (all follow cfg).
  const auto [loss_base, stored_base, ckpt_base, peak_base] = run(-1);
  EXPECT_EQ(stored_base, 0);
  EXPECT_EQ(ckpt_base, 4);

  // Zero budget: everything checkpointed (same as baseline).
  const auto [loss_zero, stored_zero, ckpt_zero, peak_zero] = run(0);
  EXPECT_EQ(stored_zero, 0);
  EXPECT_FLOAT_EQ(loss_zero, loss_base);

  // Huge budget: every microbatch stores all activations.
  const auto [loss_big, stored_big, ckpt_big, peak_big] = run(1LL << 40);
  EXPECT_EQ(ckpt_big, 0);
  EXPECT_EQ(stored_big, 4);
  EXPECT_FLOAT_EQ(loss_big, loss_base);
  EXPECT_GT(peak_big, peak_zero);

  // Intermediate budget: a mix, same math (Appendix C's "moving
  // window" of stored microbatches).
  const auto [loss_mid, stored_mid, ckpt_mid, peak_mid] = run((peak_big + peak_zero) / 2);
  EXPECT_GT(stored_mid, 0);
  EXPECT_GT(ckpt_mid, 0);
  EXPECT_FLOAT_EQ(loss_mid, loss_base);
  EXPECT_LE(peak_mid, peak_big);
}

// -------------------------------------------------- tied embeddings

TEST(TiedEmbeddings, FirstAndLastStageGradsAgree) {
  ModelConfig cfg = ModelConfig::tiny(1, 4);
  cfg.p = 2;
  cfg.global_batch = 2 * cfg.b;
  const Batch batch = make_batch(cfg);

  // Serial reference gradient of the shared table.
  Tensor ref_grad;
  spmd::run(1, [&](comm::Comm& c) {
    ModelConfig serial = cfg;
    serial.p = 1;
    model::GPTModel m(serial, c);
    const int64_t n = serial.microbatches();
    for (int64_t mb = 0; mb < n; ++mb) {
      m.set_microbatch(mb);
      ag::Var loss = m.forward_loss(batch.tokens[static_cast<size_t>(mb)],
                                    batch.targets[static_cast<size_t>(mb)]);
      ag::backward(loss, Tensor::scalar(1.0f / static_cast<float>(n)));
    }
    ref_grad = m.params()[0].grad().clone();  // word table is first param
  });

  spmd::run(cfg.p, [&](comm::Comm& world) {
    PipelineEngine engine(cfg, world, {});
    engine.run_iteration(batch.tokens, batch.targets, 0);
    // Each end of the pipeline holds a copy whose grad must equal the
    // serial gradient of the tied table.
    if (engine.pp_rank() == 0) {
      Tensor g = engine.chunk_model(0).word_table().grad();
      ASSERT_TRUE(g.allclose(ref_grad, 1e-4f, 1e-5f));
    }
    if (engine.pp_rank() == engine.pp_size() - 1) {
      Tensor g =
          engine.chunk_model(engine.num_chunks() - 1).word_table().grad();
      ASSERT_TRUE(g.allclose(ref_grad, 1e-4f, 1e-5f));
    }
  });
}

// ----------------------------------------------- data parallelism (§6.3)

TEST(DataParallel, LossAndGradsMatchSerial) {
  // d=2 replicas, each taking half the global batch; after the gradient
  // all-reduce the training trajectory must equal the serial one.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.d = 2;
  cfg.global_batch = 4 * cfg.b;  // 2 microbatches per replica
  const Batch batch = make_batch(cfg);

  ModelConfig serial = cfg;
  serial.d = 1;
  const int steps = 3;
  const auto ref = serial_losses(serial, batch, steps);
  const auto got = pipeline_losses(cfg, batch, steps, {});
  ASSERT_EQ(ref.size(), got.size());
  for (int i = 0; i < steps; ++i) {
    EXPECT_NEAR(got[static_cast<size_t>(i)], ref[static_cast<size_t>(i)],
                3e-3f * (1 + i))
        << "step " << i;
  }
}

TEST(DataParallel, Full3DGridMatchesSerial) {
  // The complete grid: d=2 x p=2 x t=2 with sequence parallelism and
  // selective recomputation — 8 simulated GPUs vs the serial reference.
  ModelConfig cfg = ModelConfig::tiny(2, 4);
  cfg.d = 2;
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 4 * cfg.b;
  cfg.validate();
  const Batch batch = make_batch(cfg);

  ModelConfig serial = ModelConfig::tiny(1, 4);
  serial.global_batch = cfg.global_batch;
  const int steps = 3;
  const auto ref = serial_losses(serial, batch, steps);
  const auto got = pipeline_losses(cfg, batch, steps, {});
  for (int i = 0; i < steps; ++i) {
    EXPECT_NEAR(got[static_cast<size_t>(i)], ref[static_cast<size_t>(i)],
                3e-3f * (1 + i))
        << "step " << i;
  }
}

TEST(DataParallel, ReplicasHoldIdenticalGradsAfterAllReduce) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.d = 2;
  cfg.global_batch = 2 * cfg.b;
  const Batch batch = make_batch(cfg);
  // Collect a replicated param's grad from both replicas.
  std::vector<Tensor> grads(2);
  spmd::run(2, [&](comm::Comm& world) {
    PipelineEngine engine(cfg, world, {});
    engine.run_iteration(batch.tokens, batch.targets, 0);
    grads[static_cast<size_t>(world.rank())] =
        engine.chunk_model(0).word_table().grad().clone();
  });
  ASSERT_TRUE(grads[0].allclose(grads[1], 0.f, 0.f));  // bitwise equal
}

}  // namespace
}  // namespace mls
