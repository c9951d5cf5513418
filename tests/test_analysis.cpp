// Tests for the comm-correctness analyzer: cross-rank collective
// matching (wrong op / wrong count / skewed order, and the paper's
// g-vs-f̄ confusion when sequence parallelism is enabled on only some
// ranks), which is always on and needs no options; the hang watchdog +
// flight recorder; and the acceptance invariant that the ledger and
// watchdog change no losses and no TrafficStats when everything is
// well-formed.
//
// None of the negative-path tests may ever deadlock: every rank of a
// mismatched collective raises the structured diagnostic, and a rank
// that never arrives is caught by the watchdog within its deadline.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/ledger.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "core/collectives.h"
#include "optim/optim.h"
#include "pipeline/executor.h"

namespace mls {
namespace {

using analysis::Options;
using analysis::ScopedOptions;
using analysis::SiteGuard;

// Runs the SPMD body and returns the error message it must produce.
std::string run_expect_error(int t, const std::function<void(comm::Comm&)>& fn) {
  try {
    spmd::run(t, fn);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the analyzer to throw";
  return "";
}

// ------------------------------------------- cross-rank mismatch paths

TEST(CollectiveMatching, WrongOpKindNamesBothCallSites) {
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{4}}, 1.0f);
    if (c.rank() == 0) {
      SiteGuard sg("test.rank0_reduce");
      c.all_reduce(x);
    } else {
      SiteGuard sg("test.rank1_gather");
      c.all_gather(x, 0);
    }
  });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.rank0_reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.rank1_gather"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_gather"), std::string::npos) << msg;
}

TEST(CollectiveMatching, WrongReduceOpIsDetected) {
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    SiteGuard sg(c.rank() == 0 ? "test.sum_side" : "test.max_side");
    Tensor x = Tensor::full(Shape{{4}}, 1.0f);
    c.all_reduce(x, c.rank() == 0 ? comm::ReduceOp::Sum : comm::ReduceOp::Max);
  });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("op=sum"), std::string::npos) << msg;
  EXPECT_NE(msg.find("op=max"), std::string::npos) << msg;
}

TEST(CollectiveMatching, WrongElementCountIsDetected) {
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    SiteGuard sg("test.count_skew");
    Tensor x = Tensor::full(Shape{{c.rank() == 0 ? 4 : 8}}, 1.0f);
    c.all_reduce(x);
  });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=8"), std::string::npos) << msg;
}

TEST(CollectiveMatching, SkewedOrderFailsAtFirstDivergentCall) {
  // Rank 0: barrier; all_reduce.  Rank 1: all_reduce; barrier.
  // Seq 0 already diverges.
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{4}}, 1.0f);
    if (c.rank() == 0) {
      SiteGuard sg("test.order_rank0");
      c.barrier();
      c.all_reduce(x);
    } else {
      SiteGuard sg("test.order_rank1");
      c.all_reduce(x);
      c.barrier();
    }
  });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("seq 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
}

TEST(CollectiveMatching, SequenceParallelOnOneRankOnly) {
  // The paper-level failure mode (§4.2.2): rank 0 thinks the layer
  // boundary is g (all-gather of its sequence shard), rank 1 thinks it
  // is f̄ (all-reduce of the full activation). The report must name the
  // conjugate-pair call sites, not just raw collective kinds.
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      ag::Var x(Tensor::full(Shape{{2, 1, 4}}, 1.0f), /*requires_grad=*/false);
      core::gather_from_sequence_parallel(x, c);
    } else {
      ag::Var x(Tensor::full(Shape{{4, 1, 4}}, 1.0f), /*requires_grad=*/false);
      core::reduce_from_tensor_parallel(x, c);
    }
  });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("g(gather_from_sp).fwd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("f̄(reduce_from_tp).fwd"), std::string::npos) << msg;
}

TEST(CollectiveMatching, MissingCollectiveOnRankZeroReportsStall) {
  // Rank 0 issues nothing, so rank 1 waits at the all-reduce's entry
  // rendezvous for a peer that never arrives. Matching cannot see a
  // collective that was never issued; the watchdog reports it.
  Options o;
  o.watchdog = true;
  o.watchdog_sec = 0.3;
  ScopedOptions opts(o);
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    if (c.rank() == 1) {
      SiteGuard sg("test.orphan_reduce");
      Tensor x = Tensor::full(Shape{{4}}, 1.0f);
      c.all_reduce(x);
    }
  });
  EXPECT_NE(msg.find("comm watchdog"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.orphan_reduce"), std::string::npos) << msg;
}

// Runs `fn` on every rank of a t-rank group, catching each rank's own
// error; returns each rank's message and its poison_reason().
struct RankErrors {
  std::vector<std::string> what, poison;
};
RankErrors run_catch_per_rank(int t,
                              const std::function<void(comm::Comm&)>& fn) {
  RankErrors out{std::vector<std::string>(static_cast<size_t>(t)),
                 std::vector<std::string>(static_cast<size_t>(t))};
  spmd::run(t, [&](comm::Comm& c) {
    const auto r = static_cast<size_t>(c.rank());
    try {
      fn(c);
    } catch (const Error& e) {
      out.what[r] = e.what();
    }
    out.poison[r] = c.poison_reason();
  });
  return out;
}

// Every rank raises the mismatch, and each substring is in its report
// and in the hierarchy's poison reason.
void expect_mismatch_on_every_rank(const RankErrors& got,
                                   const std::vector<std::string>& needles) {
  for (size_t r = 0; r < got.what.size(); ++r) {
    for (const std::string& text : {got.what[r], got.poison[r]}) {
      EXPECT_NE(text.find("collective mismatch"), std::string::npos)
          << "rank " << r << ": " << text;
      for (const std::string& n : needles) {
        EXPECT_NE(text.find(n), std::string::npos)
            << "rank " << r << " lacks '" << n << "': " << text;
      }
    }
  }
}

// No options and no environment: matching is always on. Without it the
// ring would run past rank 0's 4-element buffer.
TEST(CollectiveMatching, CountSkewRaisesOnEveryRankWithNoOptionsSet) {
  const RankErrors got = run_catch_per_rank(2, [](comm::Comm& c) {
    SiteGuard sg(c.rank() == 0 ? "test.reduce4" : "test.reduce8");
    Tensor x = Tensor::full(Shape{{c.rank() == 0 ? 4 : 8}}, 1.0f);
    c.all_reduce(x);
  });
  expect_mismatch_on_every_rank(
      got, {"test.reduce4", "test.reduce8", "count=4", "count=8"});
}

TEST(CollectiveMatching, SequenceParallelDesyncRaisesOnEveryRank) {
  const RankErrors got = run_catch_per_rank(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      ag::Var x(Tensor::full(Shape{{2, 1, 4}}, 1.0f), /*requires_grad=*/false);
      core::gather_from_sequence_parallel(x, c);
    } else {
      ag::Var x(Tensor::full(Shape{{4, 1, 4}}, 1.0f), /*requires_grad=*/false);
      core::reduce_from_tensor_parallel(x, c);
    }
  });
  expect_mismatch_on_every_rank(
      got, {"g(gather_from_sp).fwd", "f̄(reduce_from_tp).fwd"});
}

// A barrier has one rendezvous, so a rank leaves it while its peer may
// still compare the barrier's slots; the next collective must not
// overwrite them (the slots alternate by seq parity).
TEST(CollectiveMatching, MismatchRightAfterBarrierNamesItsSeq) {
  const RankErrors got = run_catch_per_rank(2, [](comm::Comm& c) {
    c.barrier();
    SiteGuard sg(c.rank() == 0 ? "test.gather_dim0" : "test.gather_dim1");
    Tensor x = Tensor::full(Shape{{2, 2}}, 1.0f);
    c.all_gather(x, c.rank() == 0 ? 0 : 1);
  });
  expect_mismatch_on_every_rank(
      got, {"at seq 1", "test.gather_dim0", "test.gather_dim1"});
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, StuckCollectiveDumpsFlightRecorderAndPoisons) {
  // Rank 1 never shows up for the all-reduce. Without the watchdog this
  // would sit in the rendezvous until the substrate's 120 s timeout;
  // with it, rank 0 unwinds within the deadline carrying the dump.
  Options o;
  o.validate = false;
  o.watchdog = true;
  o.watchdog_sec = 0.3;
  ScopedOptions opts(o);
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      SiteGuard sg("test.stuck_reduce");
      Tensor x = Tensor::full(Shape{{4}}, 1.0f);
      c.all_reduce(x);
    }
  });
  EXPECT_NE(msg.find("comm watchdog"), std::string::npos) << msg;
  EXPECT_NE(msg.find("stuck in"), std::string::npos) << msg;
  EXPECT_NE(msg.find("flight recorder"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.stuck_reduce"), std::string::npos) << msg;
}

TEST(Watchdog, StuckRecvIsAttributedToItsCallSite) {
  Options o;
  o.validate = false;
  o.watchdog = true;
  o.watchdog_sec = 0.3;
  ScopedOptions opts(o);
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      SiteGuard sg("test.recv_from_nobody");
      c.recv(1, /*tag=*/7);
    }
  });
  EXPECT_NE(msg.find("comm watchdog"), std::string::npos) << msg;
  EXPECT_NE(msg.find("recv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.recv_from_nobody"), std::string::npos) << msg;
}

// ---------------------------------- analyzer transparency (acceptance)

struct RankTraffic {
  comm::TrafficStats tp, pp, dp;
};

void expect_stats_eq(const comm::TrafficStats& a, const comm::TrafficStats& b,
                     const char* which, int rank) {
  EXPECT_EQ(a.bytes_received, b.bytes_received) << which << " rank " << rank;
  EXPECT_EQ(a.all_reduce_count, b.all_reduce_count) << which << " rank " << rank;
  EXPECT_EQ(a.all_gather_count, b.all_gather_count) << which << " rank " << rank;
  EXPECT_EQ(a.reduce_scatter_count, b.reduce_scatter_count)
      << which << " rank " << rank;
  EXPECT_EQ(a.broadcast_count, b.broadcast_count) << which << " rank " << rank;
  EXPECT_EQ(a.p2p_send_count, b.p2p_send_count) << which << " rank " << rank;
  EXPECT_EQ(a.p2p_bytes_sent, b.p2p_bytes_sent) << which << " rank " << rank;
  EXPECT_EQ(a.p2p_recv_count, b.p2p_recv_count) << which << " rank " << rank;
  EXPECT_EQ(a.p2p_bytes_received, b.p2p_bytes_received)
      << which << " rank " << rank;
}

// One training run of `cfg`; returns every step's loss and every rank's
// per-communicator traffic.
std::pair<std::vector<float>, std::vector<RankTraffic>> train(
    const model::ModelConfig& cfg, int steps) {
  // Deterministic batch (same construction for both runs).
  Rng rng(2026);
  std::vector<std::vector<int64_t>> tokens, targets;
  for (int64_t mb = 0; mb < cfg.total_microbatches(); ++mb) {
    std::vector<int64_t> tok(static_cast<size_t>(cfg.s * cfg.b));
    std::vector<int64_t> tgt(tok.size());
    for (auto& x : tok)
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    for (auto& x : tgt)
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    tokens.push_back(std::move(tok));
    targets.push_back(std::move(tgt));
  }

  const int world = cfg.t * cfg.p * cfg.d;
  std::vector<float> losses;
  std::vector<RankTraffic> traffic(static_cast<size_t>(world));
  spmd::run(world, [&](comm::Comm& c) {
    MemoryTracker::instance().reset();
    pipeline::PipelineEngine engine(cfg, c);
    optim::Sgd opt(engine.params(), 0.05f);
    std::vector<float> local;
    for (int step = 0; step < steps; ++step) {
      opt.zero_grad();
      auto stats = engine.run_iteration(tokens, targets, step);
      opt.step();
      local.push_back(stats.loss);
    }
    auto& slot = traffic[static_cast<size_t>(c.rank())];
    slot.tp = engine.tp_comm().stats();
    slot.pp = engine.pp_comm().stats();
    slot.dp = engine.dp_comm().stats();
    if (c.rank() == 0) losses = local;
  });
  return {losses, traffic};
}

// One t=2, p=2 (SP + selective recompute) training run.
std::pair<std::vector<float>, std::vector<RankTraffic>> train_t2p2(int steps) {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 4 * cfg.b;
  cfg.validate();
  return train(cfg, steps);
}

TEST(AnalyzerTransparency, TrainingStepBitIdenticalWithAnalyzerOn) {
  // Acceptance criterion: full t=2/p=2 step with the ledger + watchdog
  // on produces bit-identical losses and identical TrafficStats to the
  // run without them — the ledger observes, it never participates.
  const int steps = 2;
  std::vector<float> ref_losses;
  std::vector<RankTraffic> ref_traffic;
  {
    Options off;  // enabled() == false: no ledger is even created
    ScopedOptions opts(off);
    std::tie(ref_losses, ref_traffic) = train_t2p2(steps);
  }

  std::vector<float> got_losses;
  std::vector<RankTraffic> got_traffic;
  {
    Options on;
    on.validate = true;
    on.watchdog = true;
    on.watchdog_sec = 30.0;
    ScopedOptions opts(on);
    std::tie(got_losses, got_traffic) = train_t2p2(steps);
  }

  ASSERT_EQ(ref_losses.size(), got_losses.size());
  for (size_t i = 0; i < ref_losses.size(); ++i) {
    EXPECT_EQ(ref_losses[i], got_losses[i]) << "step " << i;  // bitwise
  }
  ASSERT_EQ(ref_traffic.size(), got_traffic.size());
  for (size_t r = 0; r < ref_traffic.size(); ++r) {
    expect_stats_eq(ref_traffic[r].tp, got_traffic[r].tp, "tp",
                    static_cast<int>(r));
    expect_stats_eq(ref_traffic[r].pp, got_traffic[r].pp, "pp",
                    static_cast<int>(r));
    expect_stats_eq(ref_traffic[r].dp, got_traffic[r].dp, "dp",
                    static_cast<int>(r));
  }
}

// A well-formed multi-collective program under full validation: every
// op matches, nothing throws, the watchdog stays quiet.
TEST(AnalyzerTransparency, CleanProgramPassesValidation) {
  Options on;
  on.validate = true;
  on.watchdog = true;
  on.watchdog_sec = 30.0;
  ScopedOptions opts(on);
  spmd::run(4, [](comm::Comm& c) {
    SiteGuard sg("test.clean_program");
    Tensor x = Tensor::full(Shape{{8}}, static_cast<float>(c.rank() + 1));
    c.all_reduce(x);
    Tensor g = c.all_gather(x, 0);
    Tensor s = c.reduce_scatter(g, 0);
    c.broadcast(s, /*root=*/1);
    comm::Comm sub = c.split(c.rank() % 2);
    Tensor y = Tensor::full(Shape{{4}}, 2.0f);
    sub.all_reduce(y, comm::ReduceOp::Max);
    sub.all_gather(y, 0);
    c.barrier();
  });
}

// A valid (t, p, d, plan, rung, layers) config drawn from `rng`.
model::ModelConfig draw_config(Rng& rng) {
  auto pick = [&rng](int n) { return static_cast<int>(rng.next_below(n)); };
  const int t = 1 + pick(2);
  const int p = 1 + pick(2);
  model::ModelConfig cfg = model::ModelConfig::tiny(t, p * (1 + pick(2)));
  cfg.p = p;
  cfg.d = 1 + pick(2);
  const core::PlanKind plans[] = {core::PlanKind::kTensorParallel,
                                  core::PlanKind::kTensorSequence,
                                  core::PlanKind::kFoldedTsp};
  const int plan = pick(3);
  cfg.set_plan(t == 1 ? core::PlanKind::kTensorParallel : plans[plan]);
  const core::Recompute rungs[] = {core::Recompute::kNone,
                                   core::Recompute::kSelective,
                                   core::Recompute::kFull};
  cfg.recompute = rungs[pick(3)];
  cfg.global_batch = static_cast<int64_t>(cfg.b) * cfg.d * 2 * p;
  cfg.validate();
  return cfg;
}

// The entry check runs on every collective, so configs nobody picked by
// hand must train through it without a report, and with the same losses
// as with the ledger + watchdog on. Fixed seed; each draw is printed.
TEST(AnalyzerTransparency, SeededConfigDrawsTrainCleanAndBitIdentical) {
  Rng rng(20261019);
  std::set<std::string> seen;
  for (int draw = 0; draw < 8;) {
    const model::ModelConfig cfg = draw_config(rng);
    char line[128];
    std::snprintf(line, sizeof(line),
                  "t=%d p=%d d=%d plan=%s rung=%s layers=%lld", cfg.t, cfg.p,
                  cfg.d, core::plan_kind_name(cfg.parallel_plan),
                  core::recompute_name(cfg.recompute),
                  static_cast<long long>(cfg.L));
    if (!seen.insert(line).second) continue;  // distinct draws only
    std::printf("[draw %d] %s\n", draw, line);
    std::vector<float> checked, recorded;
    {
      ScopedOptions opts(Options{});
      checked = train(cfg, 2).first;
    }
    {
      Options on;
      on.validate = true;
      on.watchdog = true;
      ScopedOptions opts(on);
      recorded = train(cfg, 2).first;
    }
    ASSERT_EQ(checked.size(), 2u) << line;
    EXPECT_EQ(checked, recorded) << line;  // bitwise
    ++draw;
  }
}

}  // namespace
}  // namespace mls
