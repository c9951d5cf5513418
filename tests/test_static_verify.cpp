// Tests for the static plan verifier (src/analysis/static): seeded
// mis-plans must each be flagged with BOTH call sites named, recorded
// plans of the clean config grid must verify with zero violations, the
// recorder must be data-independent, and predict_traffic over a
// recorded plan must equal the runtime TrafficStats of a separate real
// run on every rank of every group — byte for byte — along with exact
// Table-2 activation bytes and serve KV bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ledger.h"
#include "analysis/static/budget.h"
#include "analysis/static/record.h"
#include "analysis/static/verify.h"
#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "memory/activation_model.h"
#include "model/gpt.h"
#include "pipeline/executor.h"
#include "serve/decode.h"
#include "serve/kv_cache.h"

namespace mls {
namespace {

using analysis::Options;
using analysis::ScopedOptions;
using analysis::SiteGuard;
using model::ModelConfig;
using verify::Plan;
using verify::PlanEvent;
using verify::SymComm;
using verify::Violation;

std::string joined(const std::vector<Violation>& vs) {
  std::string out;
  for (const Violation& v : vs) out += "[" + v.check + "] " + v.message + "\n";
  return out;
}

// Field-by-field TrafficStats difference; empty when they agree.
std::string traffic_diff(const comm::TrafficStats& want,
                         const comm::TrafficStats& got) {
  std::ostringstream os;
  auto field = [&os](const char* name, int64_t w, int64_t g) {
    if (w != g) {
      os << "\n  " << name << ": predicted " << w << ", runtime " << g;
    }
  };
  field("bytes_received", want.bytes_received, got.bytes_received);
  field("all_reduce_count", want.all_reduce_count, got.all_reduce_count);
  field("all_gather_count", want.all_gather_count, got.all_gather_count);
  field("reduce_scatter_count", want.reduce_scatter_count,
        got.reduce_scatter_count);
  field("broadcast_count", want.broadcast_count, got.broadcast_count);
  field("p2p_send_count", want.p2p_send_count, got.p2p_send_count);
  field("p2p_bytes_sent", want.p2p_bytes_sent, got.p2p_bytes_sent);
  field("p2p_recv_count", want.p2p_recv_count, got.p2p_recv_count);
  field("p2p_bytes_received", want.p2p_bytes_received, got.p2p_bytes_received);
  return os.str();
}

bool same_event(const PlanEvent& a, const PlanEvent& b) {
  return a.kind == b.kind && a.async == b.async &&
         a.reduce_op == b.reduce_op && a.dtype == b.dtype &&
         a.count == b.count && a.dim == b.dim && a.peer == b.peer &&
         a.tag == b.tag && a.group == b.group && a.site == b.site;
}

// ------------------------------------------------- seeded mis-plans
// Five deliberately broken plans; each must be caught with the call
// sites of BOTH offending ranks named in the diagnostic.

TEST(StaticMisplan, MismatchedOpNamesBothSites) {
  Plan plan(2);
  plan.add_group("world", {0, 1});
  SymComm r0 = plan.comm("world", 0);
  SymComm r1 = plan.comm("world", 1);
  {
    SiteGuard sg("static.rank0_reduce");
    r0.all_reduce(64);
  }
  {
    SiteGuard sg("static.rank1_gather");
    r1.all_gather(32, 0);
  }
  const auto vs = verify::check_schedule(plan);
  ASSERT_EQ(vs.size(), 1u) << joined(vs);
  const std::string& msg = vs[0].message;
  EXPECT_NE(msg.find("static.rank0_reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.rank1_gather"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_gather"), std::string::npos) << msg;
}

TEST(StaticMisplan, CountDriftNamesBothSites) {
  Plan plan(2);
  plan.add_group("world", {0, 1});
  SymComm r0 = plan.comm("world", 0);
  SymComm r1 = plan.comm("world", 1);
  {
    SiteGuard sg("static.count_rank0");
    r0.all_reduce(1024);
  }
  {
    SiteGuard sg("static.count_rank1");
    r1.all_reduce(1536);  // padded-vocab drift: one rank's shard is larger
  }
  const auto vs = verify::check_schedule(plan);
  ASSERT_EQ(vs.size(), 1u) << joined(vs);
  const std::string& msg = vs[0].message;
  EXPECT_NE(msg.find("count=1024"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=1536"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.count_rank0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.count_rank1"), std::string::npos) << msg;
}

TEST(StaticMisplan, SequenceParallelOnOneRankOnly) {
  // The paper's g-vs-f̄ confusion: one rank traced with SP (ḡ emits a
  // reduce-scatter), the other without (f̄ emits an all-reduce).
  Plan plan(2);
  plan.add_group("world", {0, 1});
  SymComm r0 = plan.comm("world", 0);
  SymComm r1 = plan.comm("world", 1);
  const int64_t n_full = 16 * 2 * 32;
  {
    SiteGuard sg("ḡ(scatter_to_sp).fwd");
    r0.reduce_scatter(n_full, 0);
  }
  {
    SiteGuard sg("f̄(reduce_from_tp).fwd");
    r1.all_reduce(n_full);
  }
  const auto vs = verify::verify_plan(plan);
  ASSERT_GE(vs.size(), 1u);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "schedule");
  EXPECT_NE(msg.find("ḡ(scatter_to_sp).fwd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("f̄(reduce_from_tp).fwd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reduce_scatter"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
}

TEST(StaticMisplan, FoldedTspPlanOnOneRankOnly) {
  // Plan-axis mis-configuration: rank 0 runs the folded-TSP plan
  // (sequence-sharded, ḡ emits a reduce-scatter at the row exit) while
  // rank 1 was left on the plain TP plan (f̄ emits an all-reduce) — the
  // failure mode of setting MLS_PLAN on only part of the launch. The
  // verifier must name both plan-qualified sites.
  Plan plan(2);
  plan.add_group("world", {0, 1});
  SymComm r0 = plan.comm("world", 0);
  SymComm r1 = plan.comm("world", 1);
  const int64_t n_full = 16 * 2 * 32;
  {
    SiteGuard sg("folded_tsp.ḡ(scatter_to_sp).fwd");
    r0.reduce_scatter(n_full, 0);
  }
  {
    SiteGuard sg("tp.f̄(reduce_from_tp).fwd");
    r1.all_reduce(n_full);
  }
  const auto vs = verify::verify_plan(plan);
  ASSERT_GE(vs.size(), 1u);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "schedule");
  EXPECT_NE(msg.find("folded_tsp.ḡ(scatter_to_sp).fwd"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("tp.f̄(reduce_from_tp).fwd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reduce_scatter"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
}

TEST(StaticMisplan, P2pCycleIsReportedWithBothSites) {
  // Both stages recv before they send: a classic pipeline boundary
  // cycle. Sends buffer, but neither recv can ever be satisfied.
  Plan plan(2);
  plan.add_group("pipe", {0, 1});
  SymComm r0 = plan.comm("pipe", 0);
  SymComm r1 = plan.comm("pipe", 1);
  {
    SiteGuard sg("static.stage0_recv_first");
    r0.recv(1, 7);
    r0.send(1, 8, 128);
  }
  {
    SiteGuard sg("static.stage1_recv_first");
    r1.recv(0, 8);
    r1.send(0, 7, 128);
  }
  const auto vs = verify::check_deadlock(plan);
  ASSERT_EQ(vs.size(), 1u) << joined(vs);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "deadlock");
  EXPECT_NE(msg.find("static.stage0_recv_first"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.stage1_recv_first"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wait-for cycle"), std::string::npos) << msg;
}

TEST(StaticMisplan, WrongTable2FormulaNamesBothSources) {
  ModelConfig cfg = ModelConfig::tiny(2, 1);
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.validate();
  // The classic wrong claim: sbh(34 + 5as/h) without dividing by t —
  // the non-parallel Table 2 row applied to a sharded config.
  const double wrong = memory::act_bytes_per_layer(
      ModelConfig::tiny(1, 1), memory::technique_of(ModelConfig::tiny(1, 1)));
  const auto vs =
      verify::check_budget_claim(cfg, wrong, "test.wrong_formula_site");
  ASSERT_EQ(vs.size(), 1u);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "budget");
  EXPECT_NE(msg.find("act_bytes_per_layer"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.wrong_formula_site"), std::string::npos) << msg;
  EXPECT_NE(msg.find("drift"), std::string::npos) << msg;
}

// A correct claim produces no violation (the checker is exact, not
// tolerance-based).
TEST(StaticBudget, ExactClaimPasses) {
  ModelConfig cfg = ModelConfig::tiny(2, 1);
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.validate();
  const double right =
      memory::act_bytes_per_layer(cfg, memory::technique_of(cfg));
  EXPECT_TRUE(verify::check_budget_claim(cfg, right, "test.right").empty());
}

// ------------------------------------------------- recorded plans

ModelConfig small_config(int t, int p, int d, bool sp, int m,
                         core::Recompute rc = core::Recompute::kSelective) {
  ModelConfig cfg = ModelConfig::tiny(t, 4);
  cfg.p = p;
  cfg.d = d;
  cfg.interleave_m = m;
  cfg.set_plan(sp ? core::PlanKind::kTensorSequence
                  : core::PlanKind::kTensorParallel);
  cfg.recompute = rc;
  cfg.global_batch = static_cast<int64_t>(cfg.b) * d * 4;
  cfg.validate();
  return cfg;
}

pipeline::Schedule schedule_of(const ModelConfig& cfg) {
  return cfg.interleave_m > 1 ? pipeline::Schedule::kInterleaved1F1B
                              : pipeline::Schedule::k1F1B;
}

// One global batch of synthetic tokens and targets.
struct Batch {
  std::vector<std::vector<int64_t>> tokens, targets;
};

Batch synthetic_batch(const ModelConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  auto draw = [&] {
    std::vector<int64_t> v(static_cast<size_t>(cfg.s * cfg.b));
    for (auto& x : v) {
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    }
    return v;
  };
  Batch batch;
  for (int64_t mb = 0; mb < cfg.total_microbatches(); ++mb) {
    batch.tokens.push_back(draw());
    batch.targets.push_back(draw());
  }
  return batch;
}

TEST(StaticClean, ConfigGridVerifiesWithZeroViolations) {
  for (int t : {1, 2}) {
    for (int p : {1, 2}) {
      for (int sp : {0, 1}) {
        if (sp && t == 1) continue;
        for (auto rc : {core::Recompute::kNone, core::Recompute::kSelective,
                        core::Recompute::kFull}) {
          const ModelConfig cfg = small_config(t, p, 1, sp != 0, 1, rc);
          const Plan plan = verify::record_train_iteration(cfg);
          EXPECT_GT(plan.ranks[0].size(), 0u);
          const auto vs = verify::verify_plan(plan);
          EXPECT_TRUE(vs.empty())
              << "t=" << t << " p=" << p << " sp=" << sp << "\n" << joined(vs);
        }
      }
    }
  }
}

// With the analyzer on, every communicator keeps a ledger — size-1
// groups included, so a recorded plan is complete at t=1 or d=1. With
// it off, no communicator keeps one (the zero-cost-when-off path).
TEST(Recorder, SizeOneGroupsRecordOnlyWithAnalyzerOn) {
  const ModelConfig cfg = small_config(1, 2, 1, false, 1);
  const Batch batch = synthetic_batch(cfg, 7);
  for (bool on : {true, false}) {
    Options o;
    o.validate = on;
    o.flight_depth = 1 << 20;
    ScopedOptions so(o);
    spmd::run(cfg.p, [&](comm::Comm& c) {
      pipeline::PipelineEngine engine(cfg, c);
      engine.run_iteration(batch.tokens, batch.targets);
      ASSERT_EQ(engine.tp_comm().size(), 1);
      ASSERT_EQ(engine.dp_comm().size(), 1);
      for (const comm::Comm* g :
           {&c, &engine.tp_comm(), &engine.pp_comm(), &engine.dp_comm()}) {
        const auto history = g->ledger_history();
        if (!on) {
          EXPECT_TRUE(history.empty()) << g->group_name();
          continue;
        }
        EXPECT_EQ(history.size(), static_cast<size_t>(g->size()))
            << g->group_name();
      }
      if (on) {
        // The size-1 tp group still runs the embedding / loss
        // collectives, and its ledger now holds them.
        const auto tp = engine.tp_comm().ledger_history();
        ASSERT_EQ(tp.size(), 1u);
        EXPECT_FALSE(tp[0].empty());
      }
    });
  }
}

// The schedule depends on the config only: different weights and
// tokens (cfg.seed drives both) record the same plan, event for event.
TEST(Recorder, PlanIsDataIndependent) {
  ModelConfig a = small_config(2, 2, 1, true, 1);
  ModelConfig b = a;
  b.seed = a.seed + 1;
  const Plan pa = verify::record_train_iteration(a);
  const Plan pb = verify::record_train_iteration(b);
  const Plan da = verify::record_decode(a, 2, 3, 2);
  const Plan db = verify::record_decode(b, 2, 3, 2);
  for (const auto& [x, y] : {std::pair{&pa, &pb}, std::pair{&da, &db}}) {
    ASSERT_EQ(x->groups.size(), y->groups.size());
    for (size_t g = 0; g < x->groups.size(); ++g) {
      EXPECT_EQ(x->groups[g].name, y->groups[g].name);
      EXPECT_EQ(x->groups[g].members, y->groups[g].members);
    }
    ASSERT_EQ(x->ranks.size(), y->ranks.size());
    for (size_t r = 0; r < x->ranks.size(); ++r) {
      ASSERT_EQ(x->ranks[r].size(), y->ranks[r].size()) << "rank " << r;
      EXPECT_GT(x->ranks[r].size(), 0u) << "rank " << r;
      for (size_t i = 0; i < x->ranks[r].size(); ++i) {
        EXPECT_TRUE(same_event(x->ranks[r][i], y->ranks[r][i]))
            << "rank " << r << " event " << i;
      }
    }
  }
}

// One rank's events from different groups come back in the order the
// rank issued them (CommRecord::order), which check_deadlock relies on:
// a last-stage rank receives its input before any tp collective, and a
// first-stage rank interleaves tp collectives around its first send.
TEST(Recorder, KeepsEachRanksIssueOrderAcrossGroups) {
  const ModelConfig cfg = small_config(2, 2, 1, true, 1);
  const Plan plan = verify::record_train_iteration(cfg);
  const size_t grid_splits = 3;
  // d=1: outside the grid splits, every event is a tp collective or a
  // pipeline p2p / loss broadcast (site "pp.*").
  const auto is_tp = [](const PlanEvent& e) {
    return e.group != "world" && e.site.rfind("pp.", 0) != 0;
  };
  for (int r = 0; r < cfg.t * cfg.p; ++r) {
    const auto& prog = plan.ranks[static_cast<size_t>(r)];
    ASSERT_GT(prog.size(), grid_splits);
    if (r / cfg.t == cfg.p - 1) {  // last stage
      EXPECT_EQ(prog[grid_splits].site, "pp.fwd_recv") << "rank " << r;
      continue;
    }
    const auto first_send =
        std::find_if(prog.begin(), prog.end(), [](const PlanEvent& e) {
          return e.site == "pp.fwd_send";
        });
    ASSERT_NE(first_send, prog.end()) << "rank " << r;
    EXPECT_TRUE(std::any_of(prog.begin() + grid_splits, first_send, is_tp))
        << "rank " << r;
    EXPECT_TRUE(std::any_of(first_send, prog.end(), is_tp)) << "rank " << r;
  }
}

// ------------------------------------------------- traffic prediction
// predict_traffic must reproduce the runtime ring formulas exactly,
// including the near-equal chunking of non-divisible element counts.

TEST(StaticTraffic, RingFormulasMatchRuntimeOnNonDivisibleCounts) {
  const int T = 3;
  const int64_t n = 10;  // 10 % 3 != 0: exercises chunk_ofs rounding
  Plan plan(T);
  plan.add_group("world", {0, 1, 2});
  for (int r = 0; r < T; ++r) {
    SymComm c = plan.comm("world", r);
    c.all_reduce(n);  // F16: the tensor library's activation default
    c.all_gather(n, 0);
    c.reduce_scatter(n * T, 0);
    c.broadcast(n, /*root=*/1);
  }
  ASSERT_TRUE(verify::verify_plan(plan).empty());

  std::vector<std::string> diffs(T);
  spmd::run(T, [&](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{n}}, 1.0f + static_cast<float>(c.rank()));
    c.all_reduce(x);
    Tensor g = c.all_gather(x, 0);
    Tensor rs = c.reduce_scatter(g, 0);
    Tensor b = Tensor::full(Shape{{n}}, 3.0f);
    c.broadcast(b, 1);
    diffs[static_cast<size_t>(c.rank())] = traffic_diff(
        verify::predict_traffic(plan, "world", c.rank()), c.stats());
  });
  for (int r = 0; r < T; ++r) {
    EXPECT_EQ(diffs[static_cast<size_t>(r)], "") << "rank " << r;
  }
}

// ------------------------------------------- traffic: recorded vs real
// A recorded plan's predict_traffic must equal the TrafficStats of a
// separate real iteration (analyzer off, different tokens) on every
// rank of every group. This ties train_wire_bytes to the runtime.

// Each rank's counters on each communicator, keyed by (group, rank).
using TrafficByGroup =
    std::map<std::pair<std::string, int>, comm::TrafficStats>;

TrafficByGroup run_train_iteration(const ModelConfig& cfg) {
  const Batch batch = synthetic_batch(cfg, 2026);
  pipeline::PipelineOptions popts;
  popts.schedule = schedule_of(cfg);
  ScopedOptions off(Options{});
  std::mutex mu;
  TrafficByGroup out;
  spmd::run(cfg.t * cfg.p * cfg.d, [&](comm::Comm& c) {
    pipeline::PipelineEngine engine(cfg, c, popts);
    engine.run_iteration(batch.tokens, batch.targets);
    std::lock_guard<std::mutex> lock(mu);
    for (const comm::Comm* g :
         {&c, &engine.tp_comm(), &engine.pp_comm(), &engine.dp_comm()}) {
      out[{g->group_name(), g->rank()}] = g->stats();
    }
  });
  return out;
}

void expect_recorded_traffic_matches_runtime(const ModelConfig& cfg) {
  const Plan plan = verify::record_train_iteration(cfg, schedule_of(cfg));
  EXPECT_TRUE(verify::verify_plan(plan).empty())
      << joined(verify::verify_plan(plan));
  const TrafficByGroup runtime = run_train_iteration(cfg);
  size_t members = 0;
  for (const verify::Group& g : plan.groups) members += g.members.size();
  EXPECT_EQ(runtime.size(), members);
  int64_t wire = 0;
  for (const auto& [key, got] : runtime) {
    ASSERT_NE(plan.find_group(key.first), nullptr) << key.first;
    EXPECT_EQ(traffic_diff(verify::predict_traffic(plan, key.first, key.second),
                           got),
              "")
        << "group '" << key.first << "' rank " << key.second;
    wire += got.bytes_received + got.p2p_bytes_sent;
  }
  EXPECT_GT(wire, 0);
}

TEST(ReplayTrain, TensorParallelZeroDrift) {
  expect_recorded_traffic_matches_runtime(small_config(2, 1, 1, false, 1));
}

TEST(ReplayTrain, SequenceParallelZeroDrift) {
  expect_recorded_traffic_matches_runtime(small_config(2, 1, 1, true, 1));
}

TEST(ReplayTrain, PipelineZeroDrift) {
  expect_recorded_traffic_matches_runtime(small_config(2, 2, 1, true, 1));
}

TEST(ReplayTrain, InterleavedPipelineZeroDrift) {
  expect_recorded_traffic_matches_runtime(small_config(1, 2, 1, false, 2));
}

TEST(ReplayTrain, DataParallelZeroDrift) {
  expect_recorded_traffic_matches_runtime(small_config(1, 1, 2, false, 1));
}

TEST(ReplayTrain, FoldedTspZeroDrift) {
  ModelConfig cfg = small_config(2, 1, 1, true, 1);
  cfg.set_plan(core::PlanKind::kFoldedTsp);
  cfg.validate();
  expect_recorded_traffic_matches_runtime(cfg);
}

TEST(ReplayTrain, FoldedTspPipelineZeroDrift) {
  ModelConfig cfg = small_config(2, 2, 1, true, 1);
  cfg.set_plan(core::PlanKind::kFoldedTsp);
  cfg.validate();
  expect_recorded_traffic_matches_runtime(cfg);
}

// ----------------------------------------------------- replay: Table 2
// The measured MemoryTracker bytes of a real layer forward, fed back
// into the budget checker as a "claim", must be exact — the static
// budget IS the runtime byte count.

TEST(ReplayBudget, MeasuredLayerBytesMatchStaticBudget) {
  for (auto plan : {core::PlanKind::kTensorParallel,
                    core::PlanKind::kTensorSequence,
                    core::PlanKind::kFoldedTsp}) {
    for (auto rc : {core::Recompute::kNone, core::Recompute::kSelective}) {
      ModelConfig cfg = ModelConfig::tiny(2, 1);
      cfg.set_plan(plan);
      cfg.recompute = rc;
      cfg.validate();
      int64_t measured = -1;
      spmd::run(cfg.t, [&](comm::Comm& c) {
        auto& mt = MemoryTracker::instance();
        mt.reset();
        const core::ParallelEnv env = model::make_env(cfg, c);
        Rng master(cfg.seed);
        model::TransformerLayer layer(env, cfg, 0, master);
        Rng drng(5);
        ag::Var x(Tensor::randn(Shape{{cfg.s_local(), cfg.b, cfg.h}}, drng),
                  true);
        ag::Var y = layer.forward(x, env);
        const int64_t bytes = mt.current_major_bytes();
        ag::backward(y, Tensor::full(y.value().shape(), 1.f));
        if (c.rank() == 0) measured = bytes;
      });
      ASSERT_GE(measured, 0);
      const auto vs = verify::check_budget_claim(
          cfg, static_cast<double>(measured), "MemoryTracker replay");
      EXPECT_TRUE(vs.empty()) << "plan=" << core::plan_kind_name(plan)
                              << " rc=" << core::recompute_name(rc) << "\n"
                              << joined(vs);
    }
  }
}

// ------------------------------------------------------ replay: serve
// A recorded decode plan's predicted traffic must equal a separate real
// decode loop's counters, and the paged cache's used bytes must equal
// the KV layout's per-token bytes exactly.

TEST(ReplayServe, DecodeZeroDriftAndExactKvBytes) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.validate();
  const int steps = 3;
  const int64_t n_rows = 2;
  const Plan plan = verify::record_decode(cfg, steps, n_rows, n_rows);
  ASSERT_TRUE(verify::verify_plan(plan).empty());
  ASSERT_GT(plan.ranks[0].size(), 0u);

  std::vector<std::string> diffs(static_cast<size_t>(cfg.t));
  std::vector<int64_t> kv_used(static_cast<size_t>(cfg.t), -1);
  spmd::run(cfg.t, [&](comm::Comm& c) {
    MemoryTracker::instance().reset();
    model::GPTModel m(cfg, c);
    serve::DecodeEngine eng(m, /*overlap=*/false);
    auto cache = serve::make_paged_kv_cache(eng.layout(), /*budget=*/cfg.s * 4);
    std::vector<std::unique_ptr<serve::SequenceKV>> seqs;
    for (int64_t i = 0; i < n_rows; ++i) seqs.push_back(cache->create(cfg.s));
    for (int step = 0; step < steps; ++step) {
      std::vector<serve::DecodeRow> rows;
      for (int64_t i = 0; i < n_rows; ++i) {
        serve::DecodeRow r;
        r.token = (7 * step + 3 * i) % cfg.v;
        r.position = step;
        r.kv = seqs[static_cast<size_t>(i)].get();
        r.sample = true;  // every row samples, as recorded
        ASSERT_TRUE(r.kv->reserve(r.position));
        rows.push_back(r);
      }
      eng.step(rows);
    }
    diffs[static_cast<size_t>(c.rank())] = traffic_diff(
        verify::predict_traffic(plan, c.group_name(), c.rank()), c.stats());
    kv_used[static_cast<size_t>(c.rank())] = cache->stats().used_bytes;
    // steps positions cached per sequence, n_rows sequences.
    EXPECT_EQ(cache->stats().used_bytes,
              n_rows * steps * eng.layout().logical_bytes_per_token());
    seqs.clear();
  });

  for (int r = 0; r < cfg.t; ++r) {
    EXPECT_EQ(diffs[static_cast<size_t>(r)], "") << "rank " << r;
    EXPECT_GE(kv_used[static_cast<size_t>(r)], 0);
  }
}

}  // namespace
}  // namespace mls
