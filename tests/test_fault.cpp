// Fault-plane + elastic-recovery tests (DESIGN.md §10): deterministic
// fault plans, chaos runs, generation fallback, and — the strong
// property — losses of a crashed-and-recovered run bit-identical to an
// uninterrupted one.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "analysis/ledger.h"
#include "comm/spmd.h"
#include "core/env.h"
#include "fault/inject.h"
#include "fault/plan.h"
#include "fault/rendezvous.h"
#include "serialize/ckpt_store.h"
#include "train/trainer.h"

namespace mls {
namespace {

namespace fs = std::filesystem;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mls_fault_" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

// --------------------------------------------------------------- plans

TEST(FaultPlanTest, ParsesTheFullGrammar) {
  const auto plan = fault::FaultPlan::parse(
      "crash@r1:step=2;transient@r0:site=grad_norm:fails=2;"
      "stall@r3:sec=1.5;corrupt@r2:gen=4;crash@r*");
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].rank, 1);
  EXPECT_EQ(plan.events[0].step, 2);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kTransient);
  EXPECT_EQ(plan.events[1].site, "grad_norm");
  EXPECT_EQ(plan.events[1].fails, 2);
  EXPECT_EQ(plan.events[2].kind, fault::FaultKind::kStall);
  EXPECT_DOUBLE_EQ(plan.events[2].stall_sec, 1.5);
  EXPECT_EQ(plan.events[3].kind, fault::FaultKind::kCorrupt);
  EXPECT_EQ(plan.events[3].gen, 4);
  EXPECT_EQ(plan.events[4].rank, -1);  // r* = any rank

  // str() emits the same grammar it parses.
  const auto reparsed = fault::FaultPlan::parse(plan.str());
  EXPECT_EQ(reparsed.str(), plan.str());
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
}

TEST(FaultPlanTest, OomGrammarRoundTrips) {
  const auto plan = fault::FaultPlan::parse(
      "oom@r2:site=alloc:fails=3;oom@r*:site=pressure.soft;"
      "oom@r1:step=4:site=kv.block");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kOom);
  EXPECT_EQ(plan.events[0].rank, 2);
  EXPECT_EQ(plan.events[0].site, "alloc");
  EXPECT_EQ(plan.events[0].fails, 3);
  EXPECT_EQ(plan.events[1].rank, -1);
  EXPECT_EQ(plan.events[1].fails, 1);
  EXPECT_EQ(plan.events[2].step, 4);
  EXPECT_STREQ(fault::fault_kind_name(fault::FaultKind::kOom), "oom");
  const auto reparsed = fault::FaultPlan::parse(plan.str());
  EXPECT_EQ(reparsed.str(), plan.str());
}

TEST(FaultPlanTest, ChaosDrawsOomEvents) {
  // oom draws are probabilistic per seed; across a handful of seeds at
  // least one plan must include the kind.
  bool any_oom = false;
  for (uint64_t seed = 0; seed < 32 && !any_oom; ++seed) {
    any_oom =
        fault::FaultPlan::chaos(seed, 4, 4).str().find("oom@") != std::string::npos;
  }
  EXPECT_TRUE(any_oom) << "chaos() never drew an oom event in 32 seeds";
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("explode@r1"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("crash@x1"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("crash@r1:bogus=3"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("crash@r1:step=two"), Error);
}

TEST(FaultPlanTest, ChaosIsDeterministicInTheSeed) {
  const auto a = fault::FaultPlan::chaos(42, 4, 4);
  const auto b = fault::FaultPlan::chaos(42, 4, 4);
  const auto c = fault::FaultPlan::chaos(43, 4, 4);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.empty());
  // Different seeds should (at least for these two) differ.
  EXPECT_NE(a.str(), c.str());
}

// ------------------------------------------------- checkpoint hardening

TEST_F(FaultTest, VerifyTensorsCatchesBitFlips) {
  const std::string path = subdir("flip.ckpt");
  Rng rng(7);
  serialize::save_tensors(path, {{"w", Tensor::randn(Shape{{64}}, rng)}});
  EXPECT_TRUE(serialize::verify_tensors(path));

  // Flip one payload byte; the CRC trailer must notice.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long ofs = std::ftell(f) / 2;
  std::fseek(f, ofs, SEEK_SET);
  unsigned char b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  b ^= 0x01;
  std::fseek(f, ofs, SEEK_SET);
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  std::fclose(f);

  EXPECT_FALSE(serialize::verify_tensors(path));
  EXPECT_THROW(serialize::load_tensors(path), Error);
}

TEST_F(FaultTest, SaveIsAtomicNoTmpSurvivesAndGarbageIsInvisible) {
  const std::string path = subdir("atomic.ckpt");
  serialize::save_tensors(path, {{"w", Tensor::scalar(1.f)}});
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // published via rename
  EXPECT_TRUE(serialize::verify_tensors(path));

  // A torn write that died before rename: only the .tmp exists; the
  // checkpoint name itself stays absent/valid.
  const std::string torn = subdir("torn.ckpt");
  std::FILE* f = std::fopen((torn + ".tmp").c_str(), "wb");
  std::fputs("half a checkpoint", f);
  std::fclose(f);
  EXPECT_FALSE(fs::exists(torn));
  EXPECT_FALSE(serialize::verify_tensors(torn));
}

TEST_F(FaultTest, StoreCommitsGenerationsAndPrunes) {
  const std::string dir = subdir("store");
  spmd::run(2, [&](comm::Comm& world) {
    serialize::CheckpointStore store(dir, /*keep=*/2);
    for (int g = 0; g < 3; ++g) {
      serialize::NamedTensors items = {
          {"w", Tensor::scalar(static_cast<float>(10 * g + world.rank()))}};
      EXPECT_EQ(store.commit(world, items), g);
    }
    world.barrier();
    const auto gens = store.generations();
    ASSERT_EQ(gens.size(), 2u);  // gen 0 pruned by keep=2
    EXPECT_EQ(gens[0], 1);
    EXPECT_EQ(gens[1], 2);
    EXPECT_FALSE(fs::exists(store.shard_path(0, world.rank())));

    serialize::NamedTensors out;
    EXPECT_EQ(store.restore_latest(world, out), 2);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0].second.item(),
                    static_cast<float>(20 + world.rank()));
  });
}

TEST_F(FaultTest, StoreFallsBackWhenAnyRanksShardIsCorrupt) {
  const std::string dir = subdir("fallback");
  spmd::run(2, [&](comm::Comm& world) {
    serialize::CheckpointStore store(dir, /*keep=*/4);
    for (int g = 0; g < 2; ++g) {
      serialize::NamedTensors items = {
          {"w", Tensor::scalar(static_cast<float>(10 * g + world.rank()))}};
      store.commit(world, items);
    }
    world.barrier();
    if (world.rank() == 1) {  // damage the NEWEST generation on one rank
      std::FILE* f = std::fopen(store.shard_path(1, 1).c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 24, SEEK_SET);
      std::fputc(0xff, f);
      std::fclose(f);
    }
    world.barrier();
    serialize::NamedTensors out;
    // BOTH ranks fall back to generation 0 together, even though rank
    // 0's gen-1 shard was fine.
    EXPECT_EQ(store.restore_latest(world, out), 0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0].second.item(), static_cast<float>(world.rank()));
  });
}

TEST_F(FaultTest, RestoreWithEveryGenerationCorruptThrowsStructured) {
  const std::string dir = subdir("allbad");
  spmd::run(2, [&](comm::Comm& world) {
    serialize::CheckpointStore store(dir, /*keep=*/4);
    for (int g = 0; g < 2; ++g) {
      serialize::NamedTensors items = {
          {"w", Tensor::scalar(static_cast<float>(10 * g + world.rank()))}};
      store.commit(world, items);
    }
    world.barrier();
    if (world.rank() == 1) {  // every generation bad on one rank
      for (int64_t g = 0; g < 2; ++g) {
        std::FILE* f = std::fopen(store.shard_path(g, 1).c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 24, SEEK_SET);
        std::fputc(0xff, f);
        std::fclose(f);
      }
    }
    world.barrier();
    serialize::NamedTensors out;
    // No silent fresh start: every rank throws the structured error
    // together (the per-generation verdicts are all_reduce-agreed),
    // naming the newest bad generation.
    try {
      store.restore_latest(world, out);
      ADD_FAILURE() << "restore_latest must throw when all generations fail";
    } catch (const serialize::RestoreError& e) {
      EXPECT_EQ(e.newest_bad_gen(), 1);
      EXPECT_EQ(e.generations_tried(), 2);
      const std::string msg = e.what();
      EXPECT_NE(msg.find("generation 1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("CRC"), std::string::npos) << msg;
    }
  });
}

// ------------------------------------------------ poison-reason plumbing

TEST(FaultComm, FirstPoisonReasonWinsAndReachesHandles) {
  spmd::run(2, [&](comm::Comm& world) {
    if (world.rank() == 0) {
      Tensor t = Tensor::full(Shape{{4}}, 1.f);
      comm::CommHandle h = world.iall_reduce(t);  // blocks: rank 1 never joins
      try {
        h.wait();
        FAIL() << "wait() on a poisoned collective must throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("root cause X"), std::string::npos)
            << e.what();
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      world.poison("root cause X");
      world.poison("late secondary noise");  // must NOT overwrite
    }
    EXPECT_EQ(world.poison_reason().find("root cause X"), 0u);
    world.drain();  // must not throw or hang on a poisoned world
  });
}

// --------------------------------------------------- elastic recovery

// Pre-draws the per-step microbatch sets once so every run (reference
// and faulted) trains on identical data.
std::vector<std::vector<data::Batch>> make_steps(const model::ModelConfig& cfg,
                                                 int total) {
  data::MarkovDataset ds(cfg.v, 1.0, 5);
  std::vector<std::vector<data::Batch>> steps;
  for (int i = 0; i < total; ++i) steps.push_back(data::make_microbatches(ds, cfg));
  return steps;
}

// t=2, p=2 (4 ranks), 2 microbatches per step.
model::ModelConfig grid_config() {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 2 * cfg.b;
  return cfg;
}

// Runs the elastic loop on every rank thread; returns rank 0's result.
train::ResilientResult run_elastic(
    const model::ModelConfig& cfg, const std::string& ckpt_dir,
    const std::vector<std::vector<data::Batch>>& steps,
    int64_t ckpt_every = 1) {
  const int n = cfg.t * cfg.p * cfg.d;
  fault::Rendezvous rdv(n);
  train::ResilientResult out;
  spmd::run(n, [&](comm::Comm& world) {
    train::TrainerOptions topts;
    topts.lr = 1e-3f;
    train::ResilientOptions ropts;
    ropts.ckpt_dir = ckpt_dir;
    ropts.ckpt_every = ckpt_every;
    auto res =
        train::run_resilient(cfg, rdv, world.rank(), topts, ropts, steps);
    if (world.rank() == 0) out = std::move(res);
  });
  return out;
}

void expect_same_losses(const train::ResilientResult& a,
                        const train::ResilientResult& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_FLOAT_EQ(a.losses[i], b.losses[i]) << "step " << i;
  }
}

TEST_F(FaultTest, CrashAtEveryStepRecoversBitIdentical) {
  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 4);
  const auto ref = run_elastic(cfg, subdir("ref"), steps);
  ASSERT_EQ(ref.restarts, 0);

  for (int k = 0; k < 4; ++k) {
    SCOPED_TRACE("crash at step " + std::to_string(k));
    fault::FaultPlan plan;
    plan.events.push_back({.kind = fault::FaultKind::kCrash,
                           .rank = k % 4,
                           .step = k});
    fault::ScopedPlan armed(plan);
    const auto res = run_elastic(cfg, subdir("crash" + std::to_string(k)), steps);
    EXPECT_EQ(res.restarts, 1);
    ASSERT_EQ(res.restored_gens.size(), 1u);
    // ckpt_every=1: the newest committed generation is the one for the
    // step before the crash; a step-0 crash restarts from scratch.
    EXPECT_EQ(res.restored_gens[0], k - 1);
    ASSERT_EQ(res.failure_reasons.size(), 1u);
    EXPECT_NE(res.failure_reasons[0].find("injected crash"), std::string::npos)
        << res.failure_reasons[0];
    expect_same_losses(ref, res);
  }
}

TEST_F(FaultTest, TransientFaultIsRetriedWithoutRestart) {
  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 3);
  const auto ref = run_elastic(cfg, subdir("ref"), steps);

  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kTransient,
                         .rank = 1,
                         .step = 1,
                         .fails = 2});  // < default retry budget of 3
  fault::ScopedPlan armed(plan);
  const auto res = run_elastic(cfg, subdir("transient"), steps);
  EXPECT_EQ(res.restarts, 0);
  EXPECT_TRUE(res.failure_reasons.empty());
  expect_same_losses(ref, res);
}

TEST_F(FaultTest, TransientExhaustionHardFailsThenRecovers) {
  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 3);
  const auto ref = run_elastic(cfg, subdir("ref"), steps);

  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kTransient,
                         .rank = 2,
                         .step = 1,
                         .fails = 100});  // outlasts any retry budget
  fault::ScopedPlan armed(plan);
  const auto res = run_elastic(cfg, subdir("exhaust"), steps);
  EXPECT_EQ(res.restarts, 1);
  ASSERT_EQ(res.failure_reasons.size(), 1u);
  EXPECT_NE(res.failure_reasons[0].find("transient comm fault persisted"),
            std::string::npos)
      << res.failure_reasons[0];
  expect_same_losses(ref, res);
}

TEST_F(FaultTest, CorruptedShardFallsBackAGeneration) {
  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 4);
  const auto ref = run_elastic(cfg, subdir("ref"), steps);

  fault::FaultPlan plan;
  // Damage the newest pre-crash generation (committed after step 2) on
  // rank 2, then crash rank 0 entering step 3: restore must reject
  // generation 2 everywhere and fall back to generation 1.
  plan.events.push_back(
      {.kind = fault::FaultKind::kCorrupt, .rank = 2, .gen = 2});
  plan.events.push_back(
      {.kind = fault::FaultKind::kCrash, .rank = 0, .step = 3});
  fault::ScopedPlan armed(plan);
  const auto res = run_elastic(cfg, subdir("corrupt"), steps);
  EXPECT_EQ(res.restarts, 1);
  ASSERT_EQ(res.restored_gens.size(), 1u);
  EXPECT_EQ(res.restored_gens[0], 1);
  EXPECT_EQ(res.steps_replayed, 1);  // step 2 redone from generation 1
  expect_same_losses(ref, res);
}

TEST_F(FaultTest, CrashMidCommitKeepsPreviousGeneration) {
  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 3);
  const auto ref = run_elastic(cfg, subdir("ref"), steps);

  fault::FaultPlan plan;
  // Dies after writing its step-1 shard but before the manifest commit:
  // generation 1 must stay invisible and recovery restores generation 0.
  plan.events.push_back({.kind = fault::FaultKind::kCrash,
                         .rank = 1,
                         .step = 1,
                         .site = "ckpt.commit"});
  fault::ScopedPlan armed(plan);
  const auto res = run_elastic(cfg, subdir("midsave"), steps);
  EXPECT_EQ(res.restarts, 1);
  ASSERT_EQ(res.restored_gens.size(), 1u);
  EXPECT_EQ(res.restored_gens[0], 0);
  expect_same_losses(ref, res);
}

TEST_F(FaultTest, SlowRankTripsWatchdogAndRunRecovers) {
  analysis::Options opts;
  opts.validate = true;
  opts.watchdog = true;
  opts.watchdog_sec = 0.3;
  analysis::ScopedOptions analyzer(opts);

  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 3);
  const auto ref = run_elastic(cfg, subdir("ref"), steps);
  ASSERT_EQ(ref.restarts, 0);

  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kStall,
                         .rank = 3,
                         .step = 1,
                         .stall_sec = 1.5});
  fault::ScopedPlan armed(plan);
  const auto res = run_elastic(cfg, subdir("stall"), steps);
  EXPECT_GE(res.restarts, 1);
  ASSERT_FALSE(res.failure_reasons.empty());
  EXPECT_NE(res.failure_reasons[0].find("watchdog"), std::string::npos)
      << res.failure_reasons[0];
  expect_same_losses(ref, res);
}

TEST_F(FaultTest, ChaosSeededPlanFinishesBitIdentical) {
  const uint64_t seed = static_cast<uint64_t>(
      core::Env::integer("MLS_FAULT_CHAOS_SEED", 20260807));
  const auto cfg = grid_config();
  const int total = 4;
  const auto steps = make_steps(cfg, total);
  const auto ref = run_elastic(cfg, subdir("ref"), steps);

  const auto plan = fault::FaultPlan::chaos(seed, cfg.t * cfg.p * cfg.d, total);
  // Echo the seed + plan so any CI failure reproduces exactly.
  std::fprintf(stderr, "[chaos] seed=%llu plan=%s\n",
               static_cast<unsigned long long>(seed), plan.str().c_str());
  fault::ScopedPlan armed(plan);
  const auto res = run_elastic(cfg, subdir("chaos"), steps);
  EXPECT_GE(res.restarts, 1);  // chaos() guarantees at least one crash
  EXPECT_LE(res.restarts, 8);
  expect_same_losses(ref, res);
}

// The RNG/global-step checkpoint entries restore the dropout stream
// even when the resumed trainer's env was seeded differently.
TEST_F(FaultTest, CheckpointCarriesRngStateAcrossSeedDrift) {
  model::ModelConfig cfg = model::ModelConfig::tiny(1, 2);
  const auto steps = make_steps(cfg, 4);
  const std::string dir = subdir("rng");
  fs::create_directories(dir);

  std::vector<float> straight, resumed;
  spmd::run(1, [&](comm::Comm& world) {
    train::Trainer t(cfg, world, {});
    for (int i = 0; i < 4; ++i) {
      straight.push_back(t.step(steps[static_cast<size_t>(i)]).loss);
    }
  });
  spmd::run(1, [&](comm::Comm& world) {
    {
      train::Trainer t(cfg, world, {});
      for (int i = 0; i < 2; ++i) {
        resumed.push_back(t.step(steps[static_cast<size_t>(i)]).loss);
      }
      t.save_checkpoint(dir);
    }
    model::ModelConfig drifted = cfg;
    drifted.seed = cfg.seed + 999;  // would change dropout masks…
    train::Trainer t2(drifted, world, {});
    t2.load_checkpoint(dir);  // …but the checkpoint restores the stream
    for (int i = 2; i < 4; ++i) {
      resumed.push_back(t2.step(steps[static_cast<size_t>(i)]).loss);
    }
  });
  ASSERT_EQ(straight.size(), resumed.size());
  for (size_t i = 0; i < straight.size(); ++i) {
    EXPECT_FLOAT_EQ(straight[i], resumed[i]) << "step " << i;
  }
}

}  // namespace
}  // namespace mls
