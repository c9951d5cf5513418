// Equivalence tests for the paper's core claim that tensor parallelism,
// sequence parallelism, and selective/full activation recomputation are
// mathematically invariant: a transformer layer (and a whole GPT model)
// must produce the same outputs, losses, and gradients under every
// combination, matching a serial reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "autograd/engine.h"
#include "comm/spmd.h"
#include "core/collectives.h"
#include "core/parallel_plan.h"
#include "common/memtracker.h"
#include "model/gpt.h"
#include "memory/pool_allocator.h"
#include "optim/optim.h"

namespace mls {
namespace {

using core::ParallelEnv;
using core::Recompute;
using model::ModelConfig;
using model::TransformerLayer;

constexpr auto kTp = core::PlanKind::kTensorParallel;
constexpr auto kTpSp = core::PlanKind::kTensorSequence;

// ------------------------------------------------------------------
// Layer-level equivalence: run one TransformerLayer serially and under
// (t, plan, recompute); outputs and input-gradients must match.
// ------------------------------------------------------------------

struct LayerRun {
  Tensor out;       // full [s, b, h]
  Tensor dx;        // full [s, b, h]
  Tensor dln1_gamma;  // [h]
};

LayerRun run_layer(const ModelConfig& cfg, core::PlanKind plan, Recompute rc,
                   const Tensor& x_full, const Tensor& dy_full) {
  const bool sharded = core::plan_for(plan).sequence_sharded();
  LayerRun result;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    MemoryTracker::instance().reset();
    ParallelEnv env;
    env.tp = c;
    env.parallel_plan = &core::plan_for(plan);
    env.recompute = rc;
    env.seed = cfg.seed;
    env.microbatch = 0;

    Rng master(cfg.seed);
    TransformerLayer layer(env, cfg, /*layer_idx=*/0, master);

    const int t = c.size();
    const int r = c.rank();
    Tensor x_local = sharded ? ops::slice(x_full, 0, r * cfg.s / t, cfg.s / t)
                             : x_full.clone();
    Tensor dy_local = sharded ? ops::slice(dy_full, 0, r * cfg.s / t, cfg.s / t)
                              : dy_full.clone();

    ag::Var x(x_local, /*requires_grad=*/true);
    ag::Var y = layer.forward(x, env);
    ag::backward(y, dy_local);

    Tensor out_full = sharded ? c.all_gather(y.value(), 0) : y.value().clone();
    Tensor dx_full = sharded ? c.all_gather(x.grad(), 0) : x.grad().clone();
    Tensor dgamma = layer.ln1_gamma.grad().clone();
    if (sharded) c.all_reduce(dgamma);  // shard contributions

    if (r == 0) {
      result.out = out_full;
      result.dx = dx_full;
      result.dln1_gamma = dgamma;
    }
    // Every saved activation must be released after backward.
    MLS_CHECK_EQ(MemoryTracker::instance().current_bytes(), 0);
  });
  return result;
}

struct LayerCase {
  int t;
  // gtest prints a parameter's raw bytes into its ctest name: three
  // 4-byte fields leave no padding in it, and reordering PlanKind's
  // values would rename these tests.
  core::PlanKind plan;
  Recompute rc;
};
static_assert(sizeof(LayerCase) ==
                  sizeof(int) + sizeof(core::PlanKind) + sizeof(Recompute),
              "LayerCase must have no padding bytes");

class LayerEquivalence : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerEquivalence, MatchesSerialReference) {
  const LayerCase param = GetParam();
  ModelConfig cfg = ModelConfig::tiny(param.t, /*layers=*/1);
  cfg.validate();

  Rng drng(42);
  Tensor x = Tensor::randn(Shape{{cfg.s, cfg.b, cfg.h}}, drng);
  Tensor dy = Tensor::randn(Shape{{cfg.s, cfg.b, cfg.h}}, drng);

  ModelConfig serial_cfg = cfg;
  serial_cfg.t = 1;
  LayerRun ref = run_layer(serial_cfg, kTp, Recompute::kNone, x, dy);
  LayerRun run = run_layer(cfg, param.plan, param.rc, x, dy);

  EXPECT_TRUE(run.out.allclose(ref.out, 1e-4f, 1e-5f)) << "forward mismatch";
  EXPECT_TRUE(run.dx.allclose(ref.dx, 1e-4f, 1e-5f)) << "dx mismatch";
  EXPECT_TRUE(run.dln1_gamma.allclose(ref.dln1_gamma, 1e-3f, 1e-4f))
      << "dgamma mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, LayerEquivalence,
    ::testing::Values(
        // Pure serial sanity (checkpointing only).
        LayerCase{1, kTp, Recompute::kSelective},
        LayerCase{1, kTp, Recompute::kFull},
        // Tensor parallel.
        LayerCase{2, kTp, Recompute::kNone},
        LayerCase{4, kTp, Recompute::kNone},
        LayerCase{2, kTp, Recompute::kSelective},
        LayerCase{2, kTp, Recompute::kFull},
        // Tensor + sequence parallel.
        LayerCase{2, kTpSp, Recompute::kNone},
        LayerCase{4, kTpSp, Recompute::kNone},
        LayerCase{2, kTpSp, Recompute::kSelective},
        LayerCase{4, kTpSp, Recompute::kSelective},
        LayerCase{2, kTpSp, Recompute::kFull},
        LayerCase{4, kTpSp, Recompute::kFull}),
    [](const ::testing::TestParamInfo<LayerCase>& info) {
      const auto& c = info.param;
      return "t" + std::to_string(c.t) +
             (core::plan_for(c.plan).sequence_sharded() ? "_sp" : "_nosp") +
             "_" + core::recompute_name(c.rc);
    });

// Ablation: disabling the §4.2.2 sharded-input-save must not change the
// math, only the memory (memory asserted in test_memory.cpp).
TEST(LayerEquivalenceExtra, FullInputSaveMatchesShardedSave) {
  ModelConfig cfg = ModelConfig::tiny(2, 1);
  Rng drng(43);
  Tensor x = Tensor::randn(Shape{{cfg.s, cfg.b, cfg.h}}, drng);
  Tensor dy = Tensor::randn(Shape{{cfg.s, cfg.b, cfg.h}}, drng);

  LayerRun a = run_layer(cfg, kTpSp, Recompute::kNone, x, dy);
  ModelConfig cfg2 = cfg;
  cfg2.sharded_input_save = false;
  // run_layer builds env from scratch; patch via a copy of the function
  // inline instead.
  LayerRun b;
  spmd::run(cfg2.t, [&](comm::Comm& c) {
    ParallelEnv env;
    env.tp = c;
    env.parallel_plan = &core::sp_plan();
    env.sharded_input_save = false;
    env.seed = cfg2.seed;
    Rng master(cfg2.seed);
    TransformerLayer layer(env, cfg2, 0, master);
    const int t = c.size(), r = c.rank();
    ag::Var xv(ops::slice(x, 0, r * cfg2.s / t, cfg2.s / t), true);
    ag::Var y = layer.forward(xv, env);
    ag::backward(y, ops::slice(dy, 0, r * cfg2.s / t, cfg2.s / t));
    Tensor out_full = c.all_gather(y.value(), 0);
    Tensor dx_full = c.all_gather(xv.grad(), 0);
    if (r == 0) {
      b.out = out_full;
      b.dx = dx_full;
    }
  });
  EXPECT_TRUE(a.out.allclose(b.out, 1e-5f, 1e-6f));
  EXPECT_TRUE(a.dx.allclose(b.dx, 1e-5f, 1e-6f));
}

// ------------------------------------------------------------------
// Model-level equivalence: full GPT training loops must produce the
// same loss trajectory under every parallel/recompute configuration.
// ------------------------------------------------------------------

std::vector<float> train_losses(ModelConfig cfg, int steps) {
  cfg.validate();
  // Deterministic synthetic batch, shared by all configurations.
  Rng trng(777);
  std::vector<int64_t> tokens(static_cast<size_t>(cfg.s * cfg.b));
  std::vector<int64_t> targets(tokens.size());
  for (auto& t : tokens) t = static_cast<int64_t>(trng.next_below(static_cast<uint64_t>(cfg.v)));
  for (auto& t : targets) t = static_cast<int64_t>(trng.next_below(static_cast<uint64_t>(cfg.v)));

  std::vector<float> losses;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    MemoryTracker::instance().reset();
    model::GPTModel m(cfg, c);
    optim::Sgd opt(m.params(), 0.05f);
    std::vector<float> local_losses;
    for (int step = 0; step < steps; ++step) {
      opt.zero_grad();
      m.set_microbatch(step);
      ag::Var loss = m.forward_loss(tokens, targets);
      ag::backward(loss);
      m.sync_grads_after_backward();
      opt.step();
      local_losses.push_back(loss.item());
      MLS_CHECK_EQ(MemoryTracker::instance().current_bytes(), 0);
    }
    if (c.rank() == 0) losses = local_losses;
  });
  return losses;
}

struct ModelCase {
  int t;
  // gtest prints a parameter's raw bytes into its ctest name: three
  // 4-byte fields leave no padding in it, and reordering PlanKind's
  // values would rename these tests.
  core::PlanKind plan;
  Recompute rc;
};
static_assert(sizeof(ModelCase) ==
                  sizeof(int) + sizeof(core::PlanKind) + sizeof(Recompute),
              "ModelCase must have no padding bytes");

class ModelEquivalence : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelEquivalence, LossTrajectoryMatchesSerial) {
  const auto param = GetParam();
  ModelConfig cfg = ModelConfig::tiny(param.t, /*layers=*/2);
  cfg.set_plan(param.plan);
  cfg.recompute = param.rc;

  ModelConfig serial = ModelConfig::tiny(1, 2);
  const int steps = 4;
  const auto ref = train_losses(serial, steps);
  const auto got = train_losses(cfg, steps);

  ASSERT_EQ(ref.size(), got.size());
  // First loss: same init + same data => near-identical. Later steps
  // compound reduction-order float noise; tolerance grows slightly.
  for (int i = 0; i < steps; ++i) {
    EXPECT_NEAR(got[static_cast<size_t>(i)], ref[static_cast<size_t>(i)],
                2e-3f * (1 + i))
        << "step " << i;
  }
  // The model must actually be learning (loss decreasing).
  EXPECT_LT(ref.back(), ref.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ModelEquivalence,
    ::testing::Values(ModelCase{2, kTp, Recompute::kNone},
                      ModelCase{4, kTp, Recompute::kNone},
                      ModelCase{2, kTp, Recompute::kSelective},
                      ModelCase{2, kTp, Recompute::kFull},
                      ModelCase{2, kTpSp, Recompute::kNone},
                      ModelCase{4, kTpSp, Recompute::kNone},
                      ModelCase{2, kTpSp, Recompute::kSelective},
                      ModelCase{4, kTpSp, Recompute::kSelective},
                      ModelCase{2, kTpSp, Recompute::kFull},
                      ModelCase{4, kTpSp, Recompute::kFull},
                      ModelCase{1, kTp, Recompute::kSelective},
                      ModelCase{1, kTp, Recompute::kFull}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      const auto& c = info.param;
      return "t" + std::to_string(c.t) +
             (core::plan_for(c.plan).sequence_sharded() ? "_sp" : "_nosp") +
             "_" + core::recompute_name(c.rc);
    });

// ------------------------------------------------------------------
// Targeted unit tests for the collective autograd ops.
// ------------------------------------------------------------------

TEST(CollectiveOps, FConjugacy) {
  // f: identity forward, all-reduce backward.
  spmd::run(2, [](comm::Comm& c) {
    ag::Var x(Tensor::full(Shape{{4}}, static_cast<float>(c.rank() + 1)), true);
    ag::Var y = core::copy_to_tensor_parallel(x, c);
    ASSERT_TRUE(y.value().allclose(x.value()));
    ag::backward(y, Tensor::full(Shape{{4}}, 1.f));
    // Backward all-reduce sums the (identical) unit grads => t.
    for (int i = 0; i < 4; ++i) ASSERT_FLOAT_EQ(x.grad().data()[i], 2.f);
  });
}

TEST(CollectiveOps, FBarConjugacy) {
  // f̄: all-reduce forward, identity backward.
  spmd::run(2, [](comm::Comm& c) {
    ag::Var x(Tensor::full(Shape{{4}}, static_cast<float>(c.rank() + 1)), true);
    ag::Var y = core::reduce_from_tensor_parallel(x, c);
    ASSERT_FLOAT_EQ(y.value().data()[0], 3.f);
    ag::backward(y, Tensor::full(Shape{{4}}, 5.f));
    ASSERT_FLOAT_EQ(x.grad().data()[0], 5.f);
  });
}

TEST(CollectiveOps, AliasedGradientsGetTheirOwnStorage) {
  // add's backward hands one gradient to both inputs ({g, g}) and f̄'s
  // passes its output's gradient straight through. The engine takes a
  // gradient over only when nothing else holds its storage, so b's
  // second accumulation cannot reach a's grad through a shared buffer,
  // and no grad aliases the caller's dy.
  spmd::run(2, [](comm::Comm& c) {
    ag::Var a(Tensor::full(Shape{{4}}, 1.f), true);
    ag::Var b(Tensor::full(Shape{{4}}, 2.f), true);
    ag::Var y = ag::add(ag::add(core::reduce_from_tensor_parallel(a, c), b), b);
    const Tensor dy = Tensor::full(Shape{{4}}, 3.f);
    ag::backward(y, dy);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(a.grad().data()[i], 3.f);
      ASSERT_EQ(b.grad().data()[i], 6.f);
      ASSERT_EQ(dy.data()[i], 3.f);
    }
    EXPECT_NE(a.grad().data(), b.grad().data());
    EXPECT_NE(a.grad().data(), dy.data());
    EXPECT_NE(b.grad().data(), dy.data());
  });
}

TEST(CollectiveOps, GAndGBarAreConjugate) {
  // ḡ *sums* the ranks' contributions before scattering (its role in a
  // row-parallel linear), so composing g then ḡ on replicated data
  // yields t·x — and the conjugate backward path (ḡ: all-gather, then
  // g: reduce-scatter) likewise yields t·dy.
  const int t = 4;
  spmd::run(t, [&](comm::Comm& c) {
    Rng rng(10 + static_cast<uint64_t>(c.rank()));
    Tensor shard = Tensor::randn(Shape{{2, 3}}, rng);
    ag::Var x(shard.clone(), true);
    ag::Var gathered = core::gather_from_sequence_parallel(x, c);
    ASSERT_EQ(gathered.value().dim(0), 2 * t);
    // The rank's own shard appears at its slot in the gathered tensor.
    ASSERT_TRUE(ops::slice(gathered.value(), 0, 2 * c.rank(), 2)
                    .allclose(shard, 1e-6f, 1e-7f));
    ag::Var back = core::scatter_to_sequence_parallel(gathered, c);
    ASSERT_TRUE(back.value().allclose(ops::scale(shard, static_cast<float>(t)),
                                      1e-5f, 1e-6f));
    Tensor dy = Tensor::full(Shape{{2, 3}}, 1.f);
    ag::backward(back, dy);
    ASSERT_TRUE(x.grad().allclose(ops::scale(dy, static_cast<float>(t)), 1e-5f,
                                  1e-6f));
  });
}

TEST(CollectiveOps, VocabParallelCrossEntropyMatchesSerial) {
  const int64_t n = 6, v = 12;
  Rng rng(11);
  Tensor logits = Tensor::randn(Shape{{n, v}}, rng);
  std::vector<int64_t> targets = {0, 5, 11, 3, 7, 2};

  // Serial reference.
  auto ref = ops::cross_entropy(logits, targets);
  Tensor ref_grad = ops::cross_entropy_grad(ref.softmax, targets);

  spmd::run(3, [&](comm::Comm& c) {
    const int64_t vl = v / 3;
    const int64_t off = c.rank() * vl;
    ag::Var local(ops::slice(logits, 1, off, vl), true);
    ag::Var loss = core::vocab_parallel_cross_entropy(local, targets, off, c);
    ASSERT_NEAR(loss.item(), ref.loss, 1e-5f);
    ag::backward(loss);
    Tensor expect = ops::slice(ref_grad, 1, off, vl);
    ASSERT_TRUE(local.grad().allclose(expect, 1e-5f, 1e-6f));
  });
}

TEST(CollectiveOps, VocabParallelEmbeddingMatchesSerial) {
  const int64_t s = 4, b = 2, v = 9, h = 5;
  Rng rng(12);
  Tensor table = Tensor::randn(Shape{{v, h}}, rng);
  std::vector<int64_t> ids = {0, 8, 3, 4, 7, 1, 2, 6};
  Tensor ref = ops::embedding(table, ids).reshape(Shape{{s, b, h}});

  spmd::run(3, [&](comm::Comm& c) {
    const int64_t vl = v / 3;
    const int64_t off = c.rank() * vl;
    ag::Var shard(ops::slice(table, 0, off, vl), true);
    // Replicated output (no SP).
    ag::Var out = core::vocab_parallel_embedding(shard, ids, s, b, off, c, false);
    ASSERT_TRUE(out.value().allclose(ref, 1e-6f, 1e-7f));
    ag::backward(out, Tensor::full(Shape{{s, b, h}}, 1.f));
    // Each owned row's grad equals its occurrence count.
    for (int64_t row = 0; row < vl; ++row) {
      int count = 0;
      for (auto id : ids) count += (id == off + row);
      ASSERT_FLOAT_EQ(shard.grad().data()[row * h], static_cast<float>(count));
    }
  });
}

TEST(CollectiveOps, SpGatheredMatmulShardedVsFullSave) {
  // Both save modes must produce identical forward/backward results;
  // the sharded mode must charge t× less activation memory.
  const int64_t s = 8, b = 2, h = 6, out = 10;
  Rng rng(13);
  Tensor x_full = Tensor::randn(Shape{{s, b, h}}, rng);
  Tensor w = Tensor::randn(Shape{{h, out}}, rng);
  Tensor dy = Tensor::randn(Shape{{s, b, out}}, rng);

  for (bool sharded : {true, false}) {
    spmd::run(2, [&](comm::Comm& c) {
      MemoryTracker::instance().reset();
      // Proper column-parallel setup: each rank owns a column shard of
      // W and computes the corresponding output shard.
      const int64_t sl = s / 2;
      const int64_t ol = out / 2;
      ag::Var xs(ops::slice(x_full, 0, c.rank() * sl, sl), true);
      ag::Var wv = ag::Var::param(ops::slice(w, 1, c.rank() * ol, ol));
      ag::Var y = core::sp_gathered_matmul(xs, wv, c, false, sharded);
      const int64_t saved = MemoryTracker::instance().current_major_bytes();
      const int64_t expect =
          sharded ? sl * b * h * 2 : s * b * h * 2;  // fp16 bytes
      ASSERT_EQ(saved, expect);
      // Forward equals the serial matmul's column slice.
      Tensor ref = ops::slice(ops::matmul(x_full, w), 2, c.rank() * ol, ol);
      ASSERT_TRUE(y.value().allclose(ref, 1e-5f, 1e-6f));
      Tensor dy_local = ops::slice(dy, 2, c.rank() * ol, ol);
      ag::backward(y, dy_local);
      // dW shard must equal the serial dW's column slice.
      Tensor x2d = x_full.reshape(Shape{{s * b, h}});
      Tensor dy2d = dy.reshape(Shape{{s * b, out}});
      Tensor dw_ref = ops::slice(ops::matmul(x2d, dy2d, true), 1, c.rank() * ol, ol);
      ASSERT_TRUE(wv.grad().allclose(dw_ref, 1e-4f, 1e-5f));
      // dx shard equals the serial dx's sequence slice (the
      // reduce-scatter sums the two ranks' partial contributions).
      Tensor dx_ref = ops::matmul(dy, w, false, true);
      ASSERT_TRUE(xs.grad().allclose(ops::slice(dx_ref, 0, c.rank() * sl, sl),
                                     1e-4f, 1e-5f));
    });
  }
}

// ------------------------------------------------------------------
// Initialization: each rank's parameters are its slice of the serial
// model's weights, drawn from the same name-keyed streams.
// ------------------------------------------------------------------

uint64_t fnv1a(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// FNV-1a over every rank's parameters (shape and bits), ranks in order.
uint64_t param_hash(const ModelConfig& cfg, model::StageSpec spec) {
  std::vector<uint64_t> per_rank(static_cast<size_t>(cfg.t));
  spmd::run(cfg.t, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c, spec);
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto& p : m.params()) {
      const Tensor& v = p.value();
      const int64_t n = v.numel();
      h = fnv1a(&n, sizeof(n), h);
      h = fnv1a(v.data(), sizeof(float) * static_cast<size_t>(n), h);
    }
    per_rank[static_cast<size_t>(c.rank())] = h;
  });
  return fnv1a(per_rank.data(), sizeof(uint64_t) * per_rank.size());
}

// The full-draw-then-slice reference: the whole matrix from the
// weight's stream, then rank r's slice of each of `blocks` blocks.
Tensor sliced_reference(const Shape& full, int dim, int64_t blocks, int t,
                        int r, Rng rng, float stddev) {
  const Tensor w = Tensor::randn(full, rng, stddev);
  const int64_t block = w.dim(dim) / blocks;
  const int64_t per_rank = block / t;
  std::vector<Tensor> parts;
  for (int64_t b = 0; b < blocks; ++b)
    parts.push_back(ops::slice(w, dim, b * block + r * per_rank, per_rank));
  return ops::cat(parts, dim);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(Init, ShardIsSliceOfFullMatrix) {
  constexpr uint64_t kSeed = 0xabc;
  auto stream = [](const std::string& name) {
    return Rng(kSeed).fork(std::hash<std::string>{}(name) | 1);
  };
  for (int t : {1, 2, 3, 4}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    spmd::run(t, [&](comm::Comm& c) {
      const int r = c.rank();
      ParallelEnv env;
      env.tp = c;
      Rng master(kSeed);
      // Odd per-rank widths (5, and 3 per QKV block) and an odd row
      // length (7): owned runs start and end mid Box–Muller pair.
      core::ColumnParallelLinear col(env, 7, 5 * t, master, 0.02f, "col");
      EXPECT_TRUE(same_bits(col.weight.value(),
                            sliced_reference(Shape{{7, 5 * t}}, 1, 1, t, r,
                                             stream("col"), 0.02f)));
      EXPECT_TRUE(same_bits(col.bias.value(), Tensor::zeros(Shape{{5}})));
      core::ColumnParallelLinear qkv(env, 7, 9 * t, master, 0.02f, "qkv",
                                     /*blocks=*/3);
      EXPECT_TRUE(same_bits(qkv.weight.value(),
                            sliced_reference(Shape{{7, 9 * t}}, 1, 3, t, r,
                                             stream("qkv"), 0.02f)));
      EXPECT_TRUE(same_bits(qkv.bias.value(), Tensor::zeros(Shape{{9}})));
      core::RowParallelLinear row(env, 3 * t, 7, master, 0.02f, "row");
      EXPECT_TRUE(same_bits(row.weight.value(),
                            sliced_reference(Shape{{3 * t, 7}}, 0, 1, t, r,
                                             stream("row"), 0.02f)));
      // wte: [v, h] split by rows; v/t = 5 rows of h = 3t values.
      ModelConfig cfg;
      cfg.t = t;
      cfg.a = t;
      cfg.h = 3 * t;
      cfg.v = 5 * t;
      cfg.L = 1;
      cfg.seed = kSeed;
      model::GPTModel m(cfg, c);
      EXPECT_TRUE(same_bits(m.word_table().value(),
                            sliced_reference(Shape{{5 * t, 3 * t}}, 0, 1, t, r,
                                             stream("wte"), 0.02f)));
    });
  }
}

TEST(Init, ConstructionAllocatesOnlyShards) {
  // No rank materializes an unsharded weight: constructing the model
  // raises the arena's in-use peak by the parameters' own storage, plus
  // at most one 512 B rounding granule each.
  ModelConfig cfg;
  cfg.t = 2;
  cfg.h = 64;
  cfg.v = 128;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    const auto arena = memory::PoolAllocator::current();
    const int64_t before = arena->stats().bytes_in_use;
    arena->reset_physical_peak();
    model::GPTModel m(cfg, c);
    const int64_t growth = arena->stats().in_use_peak - before;
    int64_t param_bytes = 0;
    int64_t n = 0;
    for (const auto& p : m.params()) {
      param_bytes += p.value().storage_bytes();
      ++n;
    }
    EXPECT_GE(growth, param_bytes);
    EXPECT_LE(growth, param_bytes + 512 * n)
        << "rank " << c.rank() << ": " << n << " params";
  });
}

TEST(Init, ParameterBitsMatchParentGolden) {
  // Pinned from the full-draw-then-slice initializer; any change to a
  // stream, its element order or the shard bounds moves a hash. The
  // streams are keyed by std::hash of the weight names, so these values
  // hold for libstdc++.
  struct Golden {
    int t;
    core::PlanKind plan;
    bool head_stage;  // p = 2: the second stage (layer 1 + head)
    uint64_t hash;
  };
  const Golden cases[] = {
      {1, kTp, false, 0x967b01a98a6be502ull},
      {2, kTp, false, 0x95532b015b6c4c67ull},
      {4, kTp, false, 0xb59fae72e5b41f1cull},
      {1, kTpSp, false, 0x967b01a98a6be502ull},
      {2, kTpSp, false, 0x95532b015b6c4c67ull},
      {4, kTpSp, false, 0xb59fae72e5b41f1cull},
      {2, kTp, true, 0x9bb1fe86aa7e785cull},
  };
  for (const auto& g : cases) {
    ModelConfig cfg;
    cfg.t = g.t;
    cfg.parallel_plan = g.plan;
    model::StageSpec spec;
    if (g.head_stage) {
      cfg.p = 2;
      spec = {/*layer_begin=*/1, /*layer_end=*/2, /*has_embedding=*/false,
              /*has_head=*/true};
    }
    EXPECT_EQ(param_hash(cfg, spec), g.hash)
        << "t=" << g.t << " plan=" << core::plan_for(g.plan).name()
        << " head_stage=" << g.head_stage << std::hex << " got 0x"
        << param_hash(cfg, spec);
  }
}

}  // namespace
}  // namespace mls
