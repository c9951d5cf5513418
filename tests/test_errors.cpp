// Error-path and misuse tests: configuration validation, autograd
// misuse, invalid communicator handles, schedule constraints — the
// failure modes a downstream user will actually hit.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "comm/spmd.h"
#include "model/gpt.h"
#include "perf/flops.h"
#include "pipeline/schedule.h"

namespace mls {
namespace {

using model::ModelConfig;

// ------------------------------------------------------ config validation

TEST(ConfigValidation, RejectsIndivisibleShapes) {
  {
    ModelConfig c = ModelConfig::tiny(1, 2);
    c.h = 30;  // not divisible by a=4
    EXPECT_THROW(c.validate(), Error);
  }
  {
    ModelConfig c = ModelConfig::tiny(3, 2);  // heads=4 % t=3 != 0
    EXPECT_THROW(c.validate(), Error);
  }
  {
    ModelConfig c = ModelConfig::tiny(1, 3);
    c.p = 2;  // 3 layers % 2 stages
    EXPECT_THROW(c.validate(), Error);
  }
  {
    ModelConfig c = ModelConfig::tiny(2, 2);
    c.set_plan(core::PlanKind::kTensorSequence);
    c.s = 15;  // not divisible by t
    EXPECT_THROW(c.validate(), Error);
  }
  {
    ModelConfig c = ModelConfig::tiny(1, 4);
    c.p = 2;
    c.interleave_m = 4;  // L=4 % (p*m)=8
    EXPECT_THROW(c.validate(), Error);
  }
  {
    ModelConfig c = ModelConfig::tiny(1, 2);
    c.d = 2;
    c.global_batch = c.b;  // not divisible by b*d
    EXPECT_THROW(c.validate(), Error);
  }
}

TEST(ConfigValidation, PaperPresetsAreValid) {
  for (auto cfg : {ModelConfig::gpt_22b(), ModelConfig::gpt_175b(),
                   ModelConfig::gpt_530b(), ModelConfig::gpt_1t()}) {
    EXPECT_NO_THROW(cfg.validate()) << cfg.name;
    cfg.set_plan(core::PlanKind::kTensorSequence);
    cfg.recompute = core::Recompute::kSelective;
    EXPECT_NO_THROW(cfg.validate()) << cfg.name;
  }
}

// ------------------------------------------------------ autograd misuse

TEST(AutogradErrors, BackwardRejectsWrongGradShape) {
  ag::Var x(Tensor::zeros(Shape{{2, 3}}), true);
  ag::Var y = ag::scale(x, 2.f);
  EXPECT_THROW(ag::backward(y, Tensor::zeros(Shape{{3, 2}})), Error);
}

TEST(AutogradErrors, GradAccessWithoutBackwardThrows) {
  ag::Var x(Tensor::zeros(Shape{{2}}), true);
  EXPECT_THROW(x.grad(), Error);
  EXPECT_FALSE(x.has_grad());
}

TEST(AutogradErrors, UndefinedVarAccessThrows) {
  ag::Var empty;
  EXPECT_FALSE(empty.defined());
  EXPECT_THROW(empty.value(), Error);
}

TEST(AutogradErrors, ReleasedTensorDataAccessThrows) {
  ag::Var x(Tensor::zeros(Shape{{4}}), true);
  x.impl()->value.release();
  EXPECT_THROW(x.value().data(), Error);
  // Metadata still works (pipeline dealloc relies on this).
  EXPECT_EQ(x.value().numel(), 4);
}

TEST(AutogradErrors, MatmulShapeMismatchThrows) {
  ag::Var a(Tensor::zeros(Shape{{2, 3}}), true);
  ag::Var w = ag::Var::param(Tensor::zeros(Shape{{4, 5}}));
  EXPECT_THROW(ag::matmul(a, w), Error);
}

TEST(AutogradErrors, BackwardThroughDisconnectedLeafIsNoop) {
  // A leaf that requires no grad gets none; backward still succeeds.
  ag::Var x(Tensor::full(Shape{{2}}, 1.f), /*requires_grad=*/false);
  ag::Var y = ag::scale(x, 3.f);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_NO_THROW(ag::backward(y, Tensor::full(Shape{{2}}, 1.f)));
  EXPECT_FALSE(x.has_grad());
}

// ------------------------------------------------------ comm misuse

TEST(CommErrors, InvalidHandleRejectsCollectives) {
  comm::Comm invalid;
  Tensor t = Tensor::zeros(Shape{{2}});
  EXPECT_FALSE(invalid.valid());
  EXPECT_THROW(invalid.all_reduce(t), Error);
  EXPECT_THROW(invalid.barrier(), Error);
}

TEST(CommErrors, PoisonUnblocksPendingRecv) {
  // Rank 0 blocks in recv on a message that never comes; rank 1's
  // failure poisons the world and must wake rank 0 with an error rather
  // than leaving it to the mailbox timeout.
  EXPECT_THROW(
      spmd::run(2,
                [](comm::Comm& c) {
                  if (c.rank() == 0) {
                    (void)c.recv(1, 0);
                  } else {
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                    throw Error("rank 1 failed");
                  }
                }),
      Error);
}

TEST(CommErrors, PoisonUnblocksPendingHandleWait) {
  // Same, but rank 0 is parked in CommHandle::wait() on a nonblocking
  // receive running on its comm stream: poison must propagate through
  // the stream task into the handle.
  EXPECT_THROW(
      spmd::run(2,
                [](comm::Comm& c) {
                  if (c.rank() == 0) {
                    comm::CommHandle h = c.irecv(1, 0);
                    h.wait();
                  } else {
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                    throw Error("rank 1 failed");
                  }
                }),
      Error);
}

TEST(CommErrors, ReduceScatterRequiresDivisibleDim) {
  spmd::run(2, [](comm::Comm& c) {
    Tensor t = Tensor::zeros(Shape{{3, 2}});  // dim0=3 not divisible by 2
    ASSERT_THROW(c.reduce_scatter(t, 0), Error);
    // Other ranks reach the throw too; no hang because both throw the
    // same way before the rendezvous.
  });
}

// ------------------------------------------------------ schedule misuse

TEST(ScheduleErrors, InterleavedRequiresDivisibleMicrobatches) {
  EXPECT_THROW(
      pipeline::build_schedule(pipeline::Schedule::kInterleaved1F1B, 4, 0,
                               /*n_micro=*/6, /*m=*/2),
      Error);
}

TEST(ScheduleErrors, GPipeRejectsInterleaving) {
  EXPECT_THROW(
      pipeline::build_schedule(pipeline::Schedule::kGPipe, 2, 0, 4, /*m=*/2),
      Error);
}

TEST(ScheduleErrors, ValidatorCatchesBrokenSchedules) {
  using pipeline::Op;
  using pipeline::OpType;
  // Backward before forward.
  EXPECT_THROW(
      pipeline::validate_schedule({Op{OpType::kBackward, 0, 0}}, 1, 1), Error);
  // Duplicate forward.
  EXPECT_THROW(pipeline::validate_schedule(
                   {Op{OpType::kForward, 0, 0}, Op{OpType::kForward, 0, 0}}, 1, 1),
               Error);
  // Missing backward.
  EXPECT_THROW(
      pipeline::validate_schedule({Op{OpType::kForward, 0, 0}}, 1, 1), Error);
}

// ------------------------------------------------------ model misuse

TEST(ModelErrors, StagePiecesEnforceOwnership) {
  ModelConfig cfg = ModelConfig::tiny(1, 4);
  spmd::run(1, [&](comm::Comm& c) {
    model::StageSpec spec;
    spec.layer_begin = 2;
    spec.layer_end = 4;
    spec.has_embedding = false;
    spec.has_head = true;
    model::GPTModel stage(cfg, c, spec);
    std::vector<int64_t> tokens(static_cast<size_t>(cfg.s * cfg.b), 0);
    ASSERT_THROW(stage.embed(tokens), Error);
    ASSERT_THROW(stage.forward_loss(tokens, tokens), Error);
    Rng rng(1);
    ag::Var x(Tensor::randn(Shape{{cfg.s, cfg.b, cfg.h}}, rng), true);
    ASSERT_THROW(stage.layer_forward(0, x), Error);  // not owned
    ASSERT_NO_THROW(stage.layer_forward(2, x));
  });
}

TEST(ModelErrors, MismatchedTpCommRejected) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  spmd::run(4, [&](comm::Comm& c) {
    // A 4-rank comm for a t=2 config must be rejected.
    ASSERT_THROW(model::GPTModel m(cfg, c), Error);
  });
}

// ------------------------------------------------------ flops sanity

TEST(FlopsSanity, HardwareAlwaysAtLeastModel) {
  for (const auto& cfg : {ModelConfig::gpt_22b(), ModelConfig::gpt_1t()}) {
    const double mf = perf::model_flops_per_iteration(cfg);
    for (auto rc : {core::Recompute::kNone, core::Recompute::kSelective,
                    core::Recompute::kFull}) {
      EXPECT_GE(perf::hardware_flops_per_iteration(cfg, rc), mf * 0.999);
    }
  }
}

}  // namespace
}  // namespace mls
