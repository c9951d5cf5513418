// Generation / inference tests: inference mode disables dropout,
// vocabulary-parallel logits match serial, greedy decoding follows
// learned structure, and temperature sampling is deterministic across
// ranks.
#include <gtest/gtest.h>

#include "comm/spmd.h"
#include "model/generate.h"
#include "train/trainer.h"

namespace mls {
namespace {

using model::ModelConfig;

TEST(Inference, NextTokenLogitsMatchSerialUnderTensorParallelism) {
  // Same seed => bitwise-identical weights; the gathered logits of the
  // untrained model must agree between serial and t=2 (+SP).
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  std::vector<int64_t> tokens(static_cast<size_t>(cfg.s), 3);
  Tensor serial_logits;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    m.set_inference(true);
    serial_logits = m.next_token_logits(tokens, 5);
  });
  ASSERT_EQ(serial_logits.numel(), cfg.v);

  ModelConfig tp = cfg;
  tp.t = 2;
  tp.set_plan(core::PlanKind::kTensorSequence);
  spmd::run(2, [&](comm::Comm& c) {
    model::GPTModel m(tp, c);
    m.set_inference(true);
    Tensor logits = m.next_token_logits(tokens, 5);
    ASSERT_TRUE(logits.allclose(serial_logits, 1e-4f, 1e-5f));
  });
}

TEST(Inference, InferenceModeDisablesDropout) {
  // With dropout active, two different microbatch ids give different
  // outputs; in inference mode they are identical.
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  cfg.b = 1;
  cfg.dropout_p = 0.5f;
  std::vector<int64_t> tokens(static_cast<size_t>(cfg.s), 2);
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    m.set_microbatch(0);
    Tensor a = m.next_token_logits(tokens, 3);
    m.set_microbatch(1);
    Tensor b = m.next_token_logits(tokens, 3);
    EXPECT_FALSE(a.allclose(b, 1e-6f, 1e-7f)) << "dropout should differ";

    m.set_inference(true);
    m.set_microbatch(0);
    Tensor c0 = m.next_token_logits(tokens, 3);
    m.set_microbatch(1);
    Tensor c1 = m.next_token_logits(tokens, 3);
    EXPECT_TRUE(c0.allclose(c1, 0.f, 0.f)) << "inference must be deterministic";
  });
}

TEST(Generate, GreedyFollowsLearnedMarkovChain) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.a = 4;
  cfg.h = 48;
  cfg.s = 16;
  cfg.v = 24;
  cfg.b = 1;
  cfg.global_batch = 8;
  cfg.dropout_p = 0.0f;

  spmd::run(1, [&](comm::Comm& world) {
    train::TrainerOptions opts;
    opts.lr = 4e-3f;
    train::Trainer trainer(cfg, world, opts);
    data::MarkovDataset ds(cfg.v, 1.0, 13);
    for (int i = 0; i < 120; ++i) trainer.step(data::make_microbatches(ds, cfg));

    // Recover the chain's successor map from a data sample.
    std::map<int64_t, int64_t> succ;
    auto sample = ds.next_batch(cfg.s, 1);
    for (size_t i = 0; i < sample.tokens.size(); ++i)
      succ[sample.tokens[i]] = sample.targets[i];

    // Generate greedily from each known token and count transitions
    // that follow the chain.
    auto& m = trainer.engine().chunk_model(0);
    int correct = 0, total = 0;
    for (const auto& [tok, next] : succ) {
      model::GenerateOptions gopts;
      gopts.max_new_tokens = 4;
      auto out = model::generate(m, {tok}, gopts);
      ASSERT_EQ(out.size(), 5u);
      // Walk the generated chain.
      int64_t cur = tok;
      for (size_t i = 1; i < out.size(); ++i) {
        auto it = succ.find(cur);
        if (it == succ.end()) break;
        ++total;
        correct += (out[i] == it->second);
        cur = out[i];
      }
    }
    ASSERT_GT(total, 10);
    EXPECT_GT(static_cast<double>(correct) / total, 0.8)
        << correct << "/" << total << " transitions follow the chain";
  });
}

TEST(Generate, TemperatureSamplingDeterministicPerSeed) {
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  cfg.b = 1;
  cfg.dropout_p = 0.0f;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    model::GenerateOptions o;
    o.max_new_tokens = 8;
    o.temperature = 1.0f;
    o.seed = 42;
    const auto a = model::generate(m, {1, 2, 3}, o);
    const auto b = model::generate(m, {1, 2, 3}, o);
    EXPECT_EQ(a, b);
    o.seed = 43;
    const auto c2 = model::generate(m, {1, 2, 3}, o);
    EXPECT_NE(a, c2);  // different seed, (almost surely) different draw
  });
}

TEST(Generate, PromptLongerThanContextIsRejected) {
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    std::vector<int64_t> prompt(static_cast<size_t>(cfg.s + 1), 0);
    EXPECT_THROW(model::generate(m, prompt, {}), Error);
  });
}

TEST(Generate, PastContextLengthIsStructuredError) {
  // Positions beyond the trained window used to slide out silently;
  // they are now an explicit ContextOverflowError carrying the numbers.
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  cfg.b = 1;
  cfg.dropout_p = 0.0f;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    model::GenerateOptions o;
    o.max_new_tokens = cfg.s * 2;  // would need positions >= s
    try {
      model::generate(m, {0}, o);
      FAIL() << "expected ContextOverflowError";
    } catch (const model::ContextOverflowError& e) {
      EXPECT_EQ(e.position(), cfg.s);
      EXPECT_EQ(e.context(), cfg.s);
    }

    // The exact window fill is still fine: a 1-token prompt may
    // generate s tokens (the last feed is position s - 1) ...
    o.max_new_tokens = cfg.s;
    const auto out = model::generate(m, {0}, o);
    EXPECT_EQ(static_cast<int64_t>(out.size()), cfg.s + 1);
    // ... and asking for one more throws, leaving the model usable.
    o.max_new_tokens = cfg.s + 1;
    EXPECT_THROW(model::generate(m, {0}, o), model::ContextOverflowError);
    EXPECT_EQ(model::generate(m, {0},
                              {.max_new_tokens = 2, .temperature = 0.0f})
                  .size(),
              3u);
  });
}

}  // namespace
}  // namespace mls
