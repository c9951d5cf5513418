// Tests for the data, optim and train modules: dataset statistics,
// optimizer behaviour, LR schedule, gradient clipping (including its
// serial-vs-parallel equivalence), and end-to-end Trainer convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "comm/spmd.h"
#include "train/trainer.h"

namespace mls {
namespace {

using model::ModelConfig;

// --------------------------------------------------------------- data

TEST(Datasets, UniformTokensInRange) {
  data::UniformDataset ds(100, 1);
  auto b = ds.next_batch(64, 4);
  ASSERT_EQ(b.tokens.size(), 256u);
  for (auto t : b.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 100);
  }
}

TEST(Datasets, ZipfIsSkewed) {
  data::ZipfDataset ds(1000, 1.2, 2);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 50; ++i) {
    auto b = ds.next_batch(64, 2);
    for (auto t : b.tokens) ++counts[t];
  }
  // Token 0 (rank 1) must be much more frequent than token 500.
  EXPECT_GT(counts[0], counts[500] * 5 + 5);
}

TEST(Datasets, MarkovChainIsLearnableStructure) {
  // With fidelity 1.0, targets are a deterministic function of tokens.
  data::MarkovDataset ds(50, 1.0, 3);
  auto b = ds.next_batch(32, 2);
  std::map<int64_t, int64_t> succ;
  for (size_t i = 0; i < b.tokens.size(); ++i) {
    auto it = succ.find(b.tokens[i]);
    if (it != succ.end()) {
      EXPECT_EQ(it->second, b.targets[i]) << "non-deterministic successor";
    } else {
      succ[b.tokens[i]] = b.targets[i];
    }
  }
}

TEST(Datasets, MakeMicrobatchesShapes) {
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  cfg.global_batch = 3 * cfg.b;
  data::UniformDataset ds(cfg.v, 4);
  auto mbs = data::make_microbatches(ds, cfg);
  ASSERT_EQ(mbs.size(), 3u);
  for (const auto& mb : mbs) {
    EXPECT_EQ(mb.tokens.size(), static_cast<size_t>(cfg.s * cfg.b));
  }
}

// -------------------------------------------------------------- optim

TEST(Optim, SgdStepsDownhill) {
  // Minimize f(w) = |w|^2 / 2; grad = w.
  ag::Var w = ag::Var::param(Tensor::full(Shape{{4}}, 2.f));
  optim::Sgd opt({w}, 0.5f);
  for (int i = 0; i < 5; ++i) {
    opt.zero_grad();
    w.accumulate_grad(w.value());
    opt.step();
  }
  // w_{k+1} = 0.5 w_k: after 5 steps, 2 * 0.5^5.
  EXPECT_NEAR(w.value().data()[0], 2.f * std::pow(0.5f, 5), 1e-6);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  ag::Var w = ag::Var::param(Tensor::full(Shape{{3}}, 5.f));
  optim::Adam opt({w}, 0.2f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    w.accumulate_grad(w.value());
    opt.step();
  }
  EXPECT_LT(w.value().max_abs(), 0.05f);
}

TEST(Optim, AdamFirstStepIsLrSizedRegardlessOfGradScale) {
  // Bias correction: the first Adam step is ~lr for any gradient size.
  for (float g : {1e-4f, 1.f, 1e4f}) {
    ag::Var w = ag::Var::param(Tensor::zeros(Shape{{1}}));
    optim::Adam opt({w}, 0.1f);
    w.accumulate_grad(Tensor::full(Shape{{1}}, g));
    opt.step();
    EXPECT_NEAR(w.value().data()[0], -0.1f, 1e-3) << "g=" << g;
  }
}

// ------------------------------------------------------------ trainer

TEST(Trainer, LrScheduleWarmupAndCosine) {
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  spmd::run(1, [&](comm::Comm& c) {
    train::TrainerOptions opts;
    opts.lr = 1.0f;
    opts.warmup_steps = 10;
    opts.decay_steps = 100;
    opts.min_lr_fraction = 0.1f;
    train::Trainer t(cfg, c, opts);
    EXPECT_NEAR(t.lr_at(0), 0.1f, 1e-6);   // first warmup step
    EXPECT_NEAR(t.lr_at(9), 1.0f, 1e-6);   // end of warmup
    EXPECT_NEAR(t.lr_at(10 + 50), 0.55f, 1e-3);  // cosine midpoint
    EXPECT_NEAR(t.lr_at(10 + 100), 0.1f, 1e-3);  // floor
    EXPECT_NEAR(t.lr_at(10 + 500), 0.1f, 1e-3);  // clamped after horizon
  });
}

TEST(Trainer, LearnsMarkovStructureBelowUniformEntropy) {
  // On fidelity-1 Markov data, loss must fall well below ln(v) — the
  // quickstart's "it actually learns" check.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.v = 32;
  cfg.dropout_p = 0.0f;
  spmd::run(1, [&](comm::Comm& c) {
    train::TrainerOptions opts;
    opts.lr = 3e-3f;
    train::Trainer t(cfg, c, opts);
    data::MarkovDataset ds(cfg.v, 1.0, 7);
    float first = 0, last = 0;
    for (int i = 0; i < 60; ++i) {
      auto r = t.step(data::make_microbatches(ds, cfg));
      if (i == 0) first = r.loss;
      last = r.loss;
    }
    const float uniform = std::log(static_cast<float>(cfg.v));
    EXPECT_NEAR(first, uniform, 1.0f);
    EXPECT_LT(last, 0.6f * uniform);
  });
}

TEST(Trainer, GradClipBoundsTheNorm) {
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  spmd::run(1, [&](comm::Comm& c) {
    train::TrainerOptions opts;
    opts.lr = 1e-3f;
    opts.grad_clip = 0.01f;  // aggressive: always active
    train::Trainer t(cfg, c, opts);
    data::UniformDataset ds(cfg.v, 8);
    auto r = t.step(data::make_microbatches(ds, cfg));
    EXPECT_GT(r.grad_norm, opts.grad_clip);  // raw norm above threshold
    // After clipping, the engine's grads have norm == clip (verify on
    // the next step's pre-step state is gone, so re-derive directly).
    double sq = 0;
    for (auto& p : t.engine().params()) {
      if (!p.has_grad()) continue;
      for (int64_t i = 0; i < p.numel(); ++i) {
        sq += static_cast<double>(p.grad().data()[i]) * p.grad().data()[i];
      }
    }
    EXPECT_NEAR(std::sqrt(sq), opts.grad_clip, 1e-4);
  });
}

TEST(Trainer, ClippedTrainingMatchesSerialUnderParallelism) {
  // Gradient clipping uses a *global* norm; if the dedup rules were
  // wrong the norm — and then the parallel trajectory — would diverge
  // from serial.
  struct Run {
    std::vector<float> losses;
    float grad_norm0 = 0;  // step 0's pre-clip global norm
  };
  auto run = [](int t, int p, core::PlanKind plan, int steps) {
    ModelConfig cfg = ModelConfig::tiny(t, 4);
    cfg.p = p;
    cfg.set_plan(plan);
    cfg.global_batch = 2 * cfg.b;
    data::MarkovDataset ds(cfg.v, 1.0, 11);
    // Pre-draw all batches so every config sees identical data.
    std::vector<std::vector<data::Batch>> batches;
    for (int i = 0; i < steps; ++i) batches.push_back(data::make_microbatches(ds, cfg));
    Run out;
    spmd::run(cfg.t * cfg.p, [&](comm::Comm& world) {
      train::TrainerOptions opts;
      opts.lr = 0.01f;
      opts.use_adam = false;
      opts.grad_clip = 0.05f;
      train::Trainer trainer(cfg, world, opts);
      Run local;
      for (int i = 0; i < steps; ++i) {
        const auto r = trainer.step(batches[static_cast<size_t>(i)]);
        local.losses.push_back(r.loss);
        if (i == 0) local.grad_norm0 = r.grad_norm;
      }
      if (world.rank() == 0) out = local;
    });
    return out;
  };
  const Run ref = run(1, 1, core::PlanKind::kTensorParallel, 4);
  ASSERT_GT(ref.grad_norm0, 0.05f);  // clipping is active from step 0
  using core::PlanKind;
  for (const auto& [name, got] :
       {std::pair{"tp t=2", run(2, 1, PlanKind::kTensorParallel, 4)},
        std::pair{"tp_sp t=2 p=2", run(2, 2, PlanKind::kTensorSequence, 4)},
        std::pair{"folded_tsp t=2", run(2, 1, PlanKind::kFoldedTsp, 4)}}) {
    EXPECT_NEAR(got.grad_norm0, ref.grad_norm0, 1e-4f * ref.grad_norm0)
        << name;
    ASSERT_EQ(got.losses.size(), ref.losses.size()) << name;
    for (size_t i = 0; i < ref.losses.size(); ++i) {
      EXPECT_NEAR(got.losses[i], ref.losses[i],
                  3e-3f * (1 + static_cast<float>(i)))
          << name << " step " << i;
    }
  }
}

}  // namespace
}  // namespace mls
