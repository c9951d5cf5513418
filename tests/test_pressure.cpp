// Memory-pressure plane tests (DESIGN.md §14): the budgeted pool
// allocator's structured OOM path, the PressureMonitor watermarks, the
// recompute-escalation governor (unit ladder + t=2/p=2 training with
// bit-identical losses), the serving plane's shed-not-crash behaviors
// (deadlines, queue caps, KV watermarks, byte-budget clamp), and the
// static pressure forecast. The *Chaos* tests read
// MLS_PRESSURE_CHAOS_SEED (echoed) — the CI chaos-oom job's entry.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "analysis/static/budget.h"
#include "comm/spmd.h"
#include "core/env.h"
#include "fault/inject.h"
#include "fault/plan.h"
#include "memory/pool_allocator.h"
#include "memory/pressure.h"
#include "model/generate.h"
#include "serve/kv_cache.h"
#include "serve/traffic.h"
#include "train/trainer.h"

namespace mls {
namespace {

namespace fs = std::filesystem;

using memory::PoolAllocator;
using memory::PressureConfig;
using memory::PressureLevel;
using memory::PressureMonitor;
using memory::RecomputeGovernor;

class PressureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mls_pressure_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

// Scoped env override (core::Env's programmatic shadow map).
struct EnvVar {
  std::string name;
  EnvVar(const char* n, const std::string& v) : name(n) {
    core::Env::set(name, v);
  }
  ~EnvVar() { core::Env::clear(name); }
};

// Tiny geometry so budget arithmetic works in tens of KiB: 512 B
// granule, 4 KiB small/large boundary (everything below is large and
// gets an exact-size segment).
PoolAllocator::Config arena_cfg(int64_t budget = -1) {
  PoolAllocator::Config c;
  c.enabled = true;
  c.round = 512;
  c.small_limit = 4096;
  c.small_segment = 16384;
  c.max_cached = -1;
  c.budget_bytes = budget;
  c.report_at_exit = false;
  return c;
}

// ------------------------------------------------------------- config

TEST(PressureConfig, DisabledByDefaultAndEnvKnobsActivate) {
  EXPECT_FALSE(PressureConfig::from_env().enabled());

  EnvVar budget("MLS_MEM_BUDGET_BYTES", "1000000");
  EnvVar soft("MLS_MEM_SOFT_PCT", "0.7");
  EnvVar hard("MLS_MEM_HARD_PCT", "0.9");
  EnvVar low("MLS_MEM_LOW_PCT", "0.5");
  EnvVar calm("MLS_MEM_CALM_STEPS", "3");
  const PressureConfig cfg = PressureConfig::from_env();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.budget_bytes, 1000000);
  EXPECT_DOUBLE_EQ(cfg.soft_pct, 0.7);
  EXPECT_DOUBLE_EQ(cfg.hard_pct, 0.9);
  EXPECT_DOUBLE_EQ(cfg.low_pct, 0.5);
  EXPECT_EQ(cfg.calm_steps, 3);
  EXPECT_EQ(cfg.soft_bytes(), 700000);
  EXPECT_EQ(cfg.hard_bytes(), 900000);
  EXPECT_EQ(cfg.low_bytes(), 500000);
}

TEST(PressureConfig, MisorderedWatermarksAreRejected) {
  EnvVar budget("MLS_MEM_BUDGET_BYTES", "1000000");
  EnvVar soft("MLS_MEM_SOFT_PCT", "0.9");
  EnvVar hard("MLS_MEM_HARD_PCT", "0.8");  // hard below soft
  EXPECT_THROW(PressureConfig::from_env(), Error);
}

// -------------------------------------------------- allocator OOM path

TEST(AllocatorBudget, ExceededBudgetThrowsStructuredError) {
  PoolAllocator arena(arena_cfg(/*budget=*/65536), "budgeted");
  try {
    arena.allocate(131072);  // 2x the budget: no trim can save this
    FAIL() << "allocation over budget must throw MemoryPressureError";
  } catch (const memory::MemoryPressureError& e) {
    EXPECT_EQ(e.requested_bytes(), 131072);
    EXPECT_EQ(e.stats().budget_bytes, 65536);
    EXPECT_EQ(e.stats().oom_failures, 1);
    EXPECT_EQ(e.stats().bytes_in_use, 0);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(arena.stats().oom_failures, 1);

  // The failure left the arena usable: an in-budget request succeeds.
  float* p = arena.allocate(4096 + 512);  // large bucket, exact segment
  arena.deallocate(p);
}

TEST(AllocatorBudget, TrimOfCachedSegmentsAnswersPressure) {
  PoolAllocator arena(arena_cfg(/*budget=*/65536), "trimmer");
  // 40 KiB live, then freed: the segment stays cached. A 48 KiB
  // request cannot reuse it (too small) and a fresh segment would put
  // physical at 88 KiB > 64 KiB — the trim valve must release the
  // cached 40 KiB so the retry fits.
  float* a = arena.allocate(40960);
  arena.deallocate(a);
  EXPECT_EQ(arena.stats().bytes_cached, 40960);
  float* b = arena.allocate(49152);
  const auto st = arena.stats();
  EXPECT_EQ(st.oom_trims, 1);
  EXPECT_EQ(st.oom_failures, 0);
  EXPECT_EQ(st.physical_bytes, 49152);
  arena.deallocate(b);
}

TEST(AllocatorBudget, InjectedAllocOomFailsOnceThenRecovers) {
  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kOom,
                         .rank = -1,
                         .site = "alloc"});
  fault::ScopedPlan armed(plan);
  PoolAllocator arena(arena_cfg(), "chaos");  // no budget: fault-only
  EXPECT_THROW(arena.allocate(8192), memory::MemoryPressureError);
  EXPECT_EQ(arena.stats().oom_failures, 1);
  float* p = arena.allocate(8192);  // the event is spent
  arena.deallocate(p);
}

// ------------------------------------------------------------ monitor

TEST(Monitor, ClassifiesPhysicalBytesAgainstWatermarks) {
  auto arena = std::make_shared<PoolAllocator>(arena_cfg(), "watch");
  PressureConfig cfg;
  cfg.budget_bytes = 8 << 20;  // low 4.8 MiB, soft 6.4 MiB, hard 7.6 MiB
  PressureMonitor mon(cfg, arena);

  const int64_t chunk = 2 << 20;
  float* a = arena->allocate(chunk);
  float* b = arena->allocate(chunk);
  float* c = arena->allocate(chunk);
  EXPECT_EQ(mon.sample(), PressureLevel::kNone);  // 6 MiB: low <= x < soft

  float* d = arena->allocate(chunk);
  EXPECT_EQ(mon.sample(), PressureLevel::kHard);  // 8 MiB >= hard
  EXPECT_EQ(mon.sample(), PressureLevel::kHard);  // steady state, one edge
  EXPECT_EQ(mon.soft_events(), 1);
  EXPECT_EQ(mon.hard_events(), 1);

  arena->deallocate(d);
  arena->trim();
  EXPECT_EQ(mon.sample(), PressureLevel::kNone);  // back to 6 MiB
  arena->deallocate(c);
  arena->trim();
  EXPECT_EQ(mon.sample(), PressureLevel::kLow);  // 4 MiB < low

  // A second excursion re-arms the edge trigger: one more event each.
  c = arena->allocate(chunk);
  d = arena->allocate(chunk);
  EXPECT_EQ(mon.sample(), PressureLevel::kHard);  // 8 MiB again
  EXPECT_EQ(mon.soft_events(), 2);
  EXPECT_EQ(mon.hard_events(), 2);
  arena->deallocate(a);
  arena->deallocate(b);
  arena->deallocate(c);
  arena->deallocate(d);
}

TEST(Monitor, InjectedPressureSitesForceTheSampledLevel) {
  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kOom,
                         .rank = -1,
                         .site = "pressure.hard"});
  plan.events.push_back({.kind = fault::FaultKind::kOom,
                         .rank = -1,
                         .site = "pressure.soft",
                         .fails = 2});
  fault::ScopedPlan armed(plan);
  auto arena = std::make_shared<PoolAllocator>(arena_cfg(), "forced");
  PressureConfig cfg;
  cfg.budget_bytes = 1 << 30;  // an empty arena would always read kLow
  PressureMonitor mon(cfg, arena);
  EXPECT_EQ(mon.sample(), PressureLevel::kHard);
  EXPECT_EQ(mon.sample(), PressureLevel::kSoft);
  EXPECT_EQ(mon.sample(), PressureLevel::kSoft);
  EXPECT_EQ(mon.sample(), PressureLevel::kLow);  // plan exhausted
}

// ----------------------------------------------------------- governor

PressureConfig gov_cfg(int calm = 2) {
  PressureConfig cfg;
  cfg.budget_bytes = 1 << 20;
  cfg.calm_steps = calm;
  return cfg;
}

TEST(Governor, SoftClimbsOneRungAndHardJumpsToFull) {
  RecomputeGovernor gov(gov_cfg(), core::Recompute::kNone);
  EXPECT_EQ(gov.on_level(PressureLevel::kSoft), core::Recompute::kSelective);
  EXPECT_EQ(gov.on_level(PressureLevel::kSoft), core::Recompute::kFull);
  EXPECT_EQ(gov.on_level(PressureLevel::kSoft), core::Recompute::kFull);
  EXPECT_EQ(gov.stats().escalations, 2);
  EXPECT_EQ(gov.stats().soft_trips, 3);

  RecomputeGovernor jump(gov_cfg(), core::Recompute::kNone);
  EXPECT_EQ(jump.on_level(PressureLevel::kHard), core::Recompute::kFull);
  EXPECT_EQ(jump.stats().escalations, 1);
  EXPECT_EQ(jump.stats().hard_trips, 1);
}

TEST(Governor, DeescalatesOnlyAfterCalmStepsAndNoneHolds) {
  RecomputeGovernor gov(gov_cfg(/*calm=*/2), core::Recompute::kNone);
  gov.on_level(PressureLevel::kHard);  // -> kFull
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kFull);
  // kNone is the hysteresis band: it resets the calm counter.
  EXPECT_EQ(gov.on_level(PressureLevel::kNone), core::Recompute::kFull);
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kFull);
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kSelective);
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kSelective);
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kNone);
  // At the floor further calm samples change nothing.
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kNone);
  EXPECT_EQ(gov.stats().deescalations, 2);
}

TEST(Governor, NeverDescendsBelowTheConfiguredFloor) {
  RecomputeGovernor gov(gov_cfg(/*calm=*/1), core::Recompute::kSelective);
  EXPECT_EQ(gov.current(), core::Recompute::kSelective);
  gov.on_level(PressureLevel::kHard);  // -> kFull
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kSelective);
  EXPECT_EQ(gov.on_level(PressureLevel::kLow), core::Recompute::kSelective);
  EXPECT_EQ(gov.floor(), core::Recompute::kSelective);
}

// ------------------------------------------------- training escalation

// Pre-draws per-step microbatch sets so every run trains on the same
// data (same helper shape as test_fault).
std::vector<std::vector<data::Batch>> make_steps(const model::ModelConfig& cfg,
                                                 int total) {
  data::MarkovDataset ds(cfg.v, 1.0, 5);
  std::vector<std::vector<data::Batch>> steps;
  for (int i = 0; i < total; ++i) {
    steps.push_back(data::make_microbatches(ds, cfg));
  }
  return steps;
}

// t=2, p=2 (4 ranks), recompute floor kNone so the whole ladder is in
// play.
model::ModelConfig grid_config() {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kNone;
  cfg.global_batch = 2 * cfg.b;
  return cfg;
}

struct TrainOut {
  std::vector<float> losses;
  std::vector<core::Recompute> recompute;
  RecomputeGovernor::Stats gov;
};

// Plain (non-elastic) training on every rank thread; rank 0's log.
TrainOut run_training(const model::ModelConfig& cfg, int64_t budget_bytes,
                      const std::vector<std::vector<data::Batch>>& steps) {
  const int n = cfg.t * cfg.p * cfg.d;
  TrainOut out;
  spmd::run(n, [&](comm::Comm& world) {
    train::TrainerOptions topts;
    topts.lr = 1e-3f;
    topts.pressure.budget_bytes = budget_bytes;
    train::Trainer t(cfg, world, topts);
    std::vector<float> losses;
    std::vector<core::Recompute> rcs;
    for (const auto& mb : steps) {
      const auto r = t.step(mb);
      losses.push_back(r.loss);
      rcs.push_back(r.recompute);
    }
    if (world.rank() == 0) {
      out.losses = std::move(losses);
      out.recompute = std::move(rcs);
      if (t.governor() != nullptr) out.gov = t.governor()->stats();
    }
  });
  return out;
}

void expect_same_losses(const std::vector<float>& a,
                        const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]) << "step " << i;
  }
}

TEST(TrainingPressure, EscalationLadderIsLockstepAndBitIdentical) {
  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 6);
  const auto ref = run_training(cfg, /*budget=*/-1, steps);
  for (const auto rc : ref.recompute) {
    EXPECT_EQ(rc, core::Recompute::kNone);
  }

  // Rank 0 alone reads soft pressure for two steps; the all_reduce-Max
  // agreement must escalate every rank in lockstep, and the huge budget
  // makes every honest sample kLow, so hysteresis then walks the ladder
  // back down: none -> selective -> full -> (2 calm) selective ->
  // (2 calm) none.
  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kOom,
                         .rank = 0,
                         .site = "pressure.soft",
                         .fails = 2});
  fault::ScopedPlan armed(plan);
  const auto res = run_training(cfg, /*budget=*/int64_t{1} << 40, steps);
  expect_same_losses(ref.losses, res.losses);
  const std::vector<core::Recompute> want = {
      core::Recompute::kSelective, core::Recompute::kFull,
      core::Recompute::kFull,      core::Recompute::kSelective,
      core::Recompute::kSelective, core::Recompute::kNone};
  ASSERT_EQ(res.recompute.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(res.recompute[i], want[i]) << "step " << i;
  }
  EXPECT_EQ(res.gov.steps, 6);
  EXPECT_EQ(res.gov.soft_trips, 2);
  EXPECT_EQ(res.gov.hard_trips, 0);
  EXPECT_EQ(res.gov.escalations, 2);
  EXPECT_EQ(res.gov.deescalations, 2);
}

TEST(TrainingPressure, HardTripJumpsStraightToFull) {
  const auto cfg = grid_config();
  const auto steps = make_steps(cfg, 2);
  const auto ref = run_training(cfg, /*budget=*/-1, steps);

  fault::FaultPlan plan;
  plan.events.push_back({.kind = fault::FaultKind::kOom,
                         .rank = 3,
                         .site = "pressure.hard"});
  fault::ScopedPlan armed(plan);
  const auto res = run_training(cfg, /*budget=*/int64_t{1} << 40, steps);
  expect_same_losses(ref.losses, res.losses);
  ASSERT_EQ(res.recompute.size(), 2u);
  EXPECT_EQ(res.recompute[0], core::Recompute::kFull);
  EXPECT_EQ(res.gov.hard_trips, 1);
}

// The CI chaos-oom gate: a seeded random plan mixing forced pressure
// levels (escalations) with hard alloc failures (restart + replay via
// the elastic runner), on the t=2/p=2 grid. The run must finish with
// losses bit-identical to a pressure-free, fault-free reference.
TEST_F(PressureTest, ChaosOomPlanTrainsBitIdentical) {
  const uint64_t seed = static_cast<uint64_t>(
      core::Env::integer("MLS_PRESSURE_CHAOS_SEED", 20260809));
  const auto cfg = grid_config();
  const int total = 4;
  const int world = cfg.t * cfg.p * cfg.d;
  const auto steps = make_steps(cfg, total);

  const auto run_elastic = [&](const std::string& ckpt_dir, int64_t budget) {
    fault::Rendezvous rdv(world);
    train::ResilientResult out;
    spmd::run(world, [&](comm::Comm& w) {
      train::TrainerOptions topts;
      topts.lr = 1e-3f;
      topts.pressure.budget_bytes = budget;
      train::ResilientOptions ropts;
      ropts.ckpt_dir = ckpt_dir;
      auto res = train::run_resilient(cfg, rdv, w.rank(), topts, ropts, steps);
      if (w.rank() == 0) out = std::move(res);
    });
    return out;
  };
  const auto ref = run_elastic(subdir("ref"), /*budget=*/-1);
  ASSERT_EQ(ref.restarts, 0);

  std::mt19937_64 rng(seed);
  fault::FaultPlan plan;
  const char* sites[] = {"pressure.soft", "pressure.hard"};
  const int pressure_events = 2 + static_cast<int>(rng() % 3);
  for (int i = 0; i < pressure_events; ++i) {
    plan.events.push_back(
        {.kind = fault::FaultKind::kOom,
         .rank = static_cast<int>(rng() % static_cast<uint64_t>(world)),
         .step = static_cast<int64_t>(rng() % total),
         .site = sites[rng() % 2],
         .fails = 1 + static_cast<int>(rng() % 3)});
  }
  const int alloc_events = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < alloc_events; ++i) {
    plan.events.push_back(
        {.kind = fault::FaultKind::kOom,
         .rank = static_cast<int>(rng() % static_cast<uint64_t>(world)),
         .step = static_cast<int64_t>(rng() % total),
         .site = "alloc"});
  }
  std::fprintf(stderr, "[chaos-oom] seed=%llu plan=%s\n",
               static_cast<unsigned long long>(seed), plan.str().c_str());

  fault::ScopedPlan armed(plan);
  const auto res = run_elastic(subdir("chaos"), /*budget=*/int64_t{1} << 40);
  EXPECT_GE(res.restarts, 1);  // every alloc oom is a hard mid-step fault
  EXPECT_LE(res.restarts, 8);
  for (const auto& reason : res.failure_reasons) {
    EXPECT_NE(reason.find("memory pressure"), std::string::npos) << reason;
  }
  expect_same_losses(ref.losses, res.losses);
}

// ------------------------------------------------------------- serving

using model::ModelConfig;
using serve::ContinuousBatchScheduler;
using serve::FinishReason;
using serve::Request;
using serve::ServeConfig;

std::vector<Request> small_requests(const ModelConfig& cfg, int64_t n,
                                    int64_t max_new) {
  std::vector<Request> reqs;
  for (int64_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    for (int64_t j = 0; j <= i % 3; ++j) r.prompt.push_back((5 + 3 * j + 7 * i) % cfg.v);
    r.max_new_tokens = max_new;
    r.temperature = (i % 2 == 0) ? 0.0f : 0.8f;
    r.seed = 50 + static_cast<uint64_t>(i);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

std::vector<int64_t> generate_reference(model::GPTModel& m, const Request& r) {
  model::GenerateOptions o;
  o.max_new_tokens = r.max_new_tokens;
  o.temperature = r.temperature;
  o.seed = r.seed;
  return model::generate(m, r.prompt, o);
}

struct ServeResult {
  std::map<int64_t, std::vector<int64_t>> tokens;
  std::map<int64_t, FinishReason> reasons;
  serve::SchedStats stats;
  serve::KVStats kv;
};

ServeResult serve_all(model::GPTModel& m, const ServeConfig& scfg,
                      const std::vector<Request>& reqs) {
  ContinuousBatchScheduler sched(m, scfg);
  for (const Request& r : reqs) sched.submit(r);
  ServeResult res;
  int64_t guard = 0;
  while (!sched.idle()) {
    MLS_CHECK_LT(guard++, 100000) << "scheduler did not drain";
    for (auto& c : sched.step()) {
      res.reasons[c.request.id] = c.reason;
      res.tokens[c.request.id] = std::move(c.tokens);
    }
  }
  res.stats = sched.stats();
  res.kv = sched.kv_stats();
  return res;
}

TEST(ServePressure, DeadlineRetiresRunningRequestAsTimedOut) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    Request r;
    r.id = 0;
    r.prompt = {1, 2};
    r.max_new_tokens = 12;
    r.deadline_steps = 4;  // expires mid-decode

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 64;
    const auto got = serve_all(m, scfg, {r});
    EXPECT_EQ(got.reasons.at(0), FinishReason::kTimedOut);
    EXPECT_GE(got.tokens.at(0).size(), r.prompt.size());
    EXPECT_LT(got.tokens.at(0).size(),
              r.prompt.size() + static_cast<size_t>(r.max_new_tokens));
    EXPECT_EQ(got.stats.timed_out, 1);
    // The timed-out sequence's blocks came back that step.
    EXPECT_EQ(got.kv.blocks_free, got.kv.blocks_total);
  });
}

TEST(ServePressure, DeadlineExpiresQueuedRequestUntouched) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    Request a;  // hogs the single batch slot
    a.id = 0;
    a.prompt = {3};
    a.max_new_tokens = 8;
    Request b;  // dies in the queue before a slot opens
    b.id = 1;
    b.prompt = {4, 5};
    b.max_new_tokens = 4;
    b.deadline_steps = 2;

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 64;
    scfg.max_batch = 1;
    const auto got = serve_all(m, scfg, {a, b});
    EXPECT_EQ(got.reasons.at(0), FinishReason::kCompleted);
    EXPECT_EQ(got.reasons.at(1), FinishReason::kTimedOut);
    EXPECT_EQ(got.tokens.at(1), b.prompt);  // never admitted, never decoded
    EXPECT_EQ(got.stats.timed_out, 1);
  });
}

TEST(ServePressure, QueueCapShedsNewestFirst) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = small_requests(cfg, 5, /*max_new=*/4);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 64;
    scfg.max_batch = 1;
    scfg.max_queue = 2;
    const auto got = serve_all(m, scfg, reqs);
    // Oldest submissions survive; the newest three are shed, determin-
    // istically, before any decode work is spent on them.
    EXPECT_EQ(got.reasons.at(0), FinishReason::kCompleted);
    EXPECT_EQ(got.reasons.at(1), FinishReason::kCompleted);
    EXPECT_EQ(got.reasons.at(2), FinishReason::kShed);
    EXPECT_EQ(got.reasons.at(3), FinishReason::kShed);
    EXPECT_EQ(got.reasons.at(4), FinishReason::kShed);
    EXPECT_EQ(got.stats.shed, 3);
    for (int64_t id = 2; id < 5; ++id) {
      EXPECT_EQ(got.tokens.at(id), reqs[static_cast<size_t>(id)].prompt);
    }
  });
}

TEST(ServePressure, SoftWatermarkThrottlesAdmissionUntilRoomFrees) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    Request a;
    a.id = 0;
    a.prompt = {1, 2};
    a.max_new_tokens = 6;
    Request b;
    b.id = 1;
    b.prompt = {3};
    b.max_new_tokens = 5;
    const auto ref_a = generate_reference(m, a);
    const auto ref_b = generate_reference(m, b);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 8;  // 2 blocks
    scfg.soft_pct = 0.5;        // one attached block gates admission
    ContinuousBatchScheduler sched(m, scfg);
    sched.submit(a);
    ServeResult got;
    int64_t guard = 0;
    const auto drain_step = [&]() {
      for (auto& comp : sched.step()) {
        got.reasons[comp.request.id] = comp.reason;
        got.tokens[comp.request.id] = std::move(comp.tokens);
      }
    };
    drain_step();  // admits a; occupancy is now at/above soft
    sched.submit(b);
    while (!sched.idle()) {
      MLS_CHECK_LT(guard++, 100000) << "scheduler did not drain";
      drain_step();
    }
    EXPECT_EQ(got.reasons.at(0), FinishReason::kCompleted);
    EXPECT_EQ(got.reasons.at(1), FinishReason::kCompleted);
    EXPECT_EQ(got.tokens.at(0), ref_a);
    EXPECT_EQ(got.tokens.at(1), ref_b);
    EXPECT_GT(sched.stats().throttled_steps, 0)
        << "b should have waited out a's occupancy";
  });
}

TEST(ServePressure, HardWatermarkPreemptsBackUnderAndTokensMatch) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = small_requests(cfg, 3, /*max_new=*/6);
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) ref[r.id] = generate_reference(m, r);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 16;  // 4 blocks across 3 growing sequences
    scfg.soft_pct = 0.75;        // validate() requires soft <= hard
    scfg.hard_pct = 0.75;
    const auto got = serve_all(m, scfg, reqs);
    EXPECT_GT(got.stats.pressure_preemptions, 0)
        << "the hard watermark should have evicted at least once";
    for (const auto& r : reqs) {
      EXPECT_EQ(got.reasons.at(r.id), FinishReason::kCompleted);
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
    }
  });
}

TEST(ServePressure, ByteBudgetClampsKvTokensAndPeakStaysUnder) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 4096;  // the byte ceiling must win
    const auto layout = serve::kv_layout(cfg, cfg.t, scfg.block_tokens);
    scfg.mem_budget_bytes = layout.logical_bytes_per_token() * 32;
    ContinuousBatchScheduler sched(m, scfg);
    EXPECT_LE(sched.config().kv_budget_tokens, 32);
    EXPECT_GE(sched.config().kv_budget_tokens, scfg.block_tokens);

    for (const auto& r : small_requests(cfg, 4, /*max_new=*/6)) {
      sched.submit(r);
    }
    int64_t guard = 0;
    int64_t completed = 0;
    while (!sched.idle()) {
      MLS_CHECK_LT(guard++, 100000) << "scheduler did not drain";
      completed += static_cast<int64_t>(sched.step().size());
    }
    EXPECT_EQ(completed, 4);
    EXPECT_LE(sched.kv_stats().reserved_peak, scfg.mem_budget_bytes)
        << "logical KV peak must respect MLS_MEM_BUDGET_BYTES";
  });
}

// Seeded chaos at the kv.block site: injected reservation failures are
// indistinguishable from a dry pool — the scheduler preempts and
// replays, and every output token still matches generate().
TEST(ServePressureChaos, InjectedKvBlockOomKeepsTokensIdentical) {
  const uint64_t seed = static_cast<uint64_t>(
      core::Env::integer("MLS_PRESSURE_CHAOS_SEED", 20260809));
  const int fails = 1 + static_cast<int>(seed % 4);
  std::fprintf(stderr, "[chaos-oom] seed=%llu kv.block fails=%d\n",
               static_cast<unsigned long long>(seed), fails);
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = small_requests(cfg, 4, /*max_new=*/6);
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) ref[r.id] = generate_reference(m, r);

    fault::FaultPlan plan;
    plan.events.push_back({.kind = fault::FaultKind::kOom,
                           .rank = -1,
                           .site = "kv.block",
                           .fails = fails});
    fault::ScopedPlan armed(plan);
    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 64;
    const auto got = serve_all(m, scfg, reqs);
    EXPECT_GT(got.kv.reserve_failures, 0);
    for (const auto& r : reqs) {
      EXPECT_EQ(got.reasons.at(r.id), FinishReason::kCompleted);
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
    }
  });
}

// ------------------------------------------------------------ forecast

TEST(Forecast, RungsShrinkResidencyAndVerdictsTrackTheBudget) {
  model::ModelConfig cfg = model::ModelConfig::tiny(1, 2);
  cfg.recompute = core::Recompute::kNone;

  // Probe run (any budget) to learn the per-rung residents.
  const auto probe = verify::forecast_pressure(cfg, int64_t{1} << 40);
  EXPECT_GT(probe.resident_bytes[0], probe.resident_bytes[1]);
  EXPECT_GT(probe.resident_bytes[1], probe.resident_bytes[2]);
  EXPECT_EQ(probe.configured_rung, 0);
  EXPECT_FALSE(probe.can_trip_soft);
  EXPECT_EQ(probe.floor_rung, 0);
  EXPECT_NE(probe.text().find("stays under"), std::string::npos);

  // Budget slightly above the kNone resident: the configured rung trips
  // soft (but not hard) and the governor settles on a cheaper rung.
  const auto tight = verify::forecast_pressure(
      cfg, static_cast<int64_t>(probe.resident_bytes[0] / 0.9) + 1);
  EXPECT_TRUE(tight.can_trip_soft);
  EXPECT_FALSE(tight.can_trip_hard);
  EXPECT_GE(tight.floor_rung, 1);
  EXPECT_TRUE(tight.fits_at_full);
  EXPECT_NE(tight.text().find("soft watermark"), std::string::npos);

  // Budget below even the full-recompute resident: nothing fits.
  const auto hopeless = verify::forecast_pressure(
      cfg, static_cast<int64_t>(probe.resident_bytes[2] / 0.96));
  EXPECT_TRUE(hopeless.can_trip_hard);
  EXPECT_FALSE(hopeless.fits_at_full);
  EXPECT_EQ(hopeless.floor_rung, -1);
  EXPECT_NE(hopeless.text().find("no rung fits"), std::string::npos);
}

TEST(Forecast, LevelNamesAreStable) {
  EXPECT_STREQ(memory::pressure_level_name(PressureLevel::kLow), "low");
  EXPECT_STREQ(memory::pressure_level_name(PressureLevel::kNone), "none");
  EXPECT_STREQ(memory::pressure_level_name(PressureLevel::kSoft), "soft");
  EXPECT_STREQ(memory::pressure_level_name(PressureLevel::kHard), "hard");
}

}  // namespace
}  // namespace mls
