// Tests for the comm-correctness analyzer (src/analysis): cross-rank
// collective matching (wrong op / wrong count / skewed order /
// blocking-vs-nonblocking, and the paper's g-vs-f̄ confusion when
// sequence parallelism is enabled on only some ranks), the hang
// watchdog + flight recorder, the leaked-CommHandle audit, and the
// acceptance invariant that the analyzer changes no losses and no
// TrafficStats when everything is well-formed.
//
// None of the negative-path tests may ever deadlock: the analyzer's
// whole point is that the failing rank throws a structured diagnostic
// and poisons its peers within the watchdog deadline.
#include <gtest/gtest.h>

#include <functional>
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

Options validate_only() {
  Options o;
  o.validate = true;
  o.watchdog = false;
  o.watchdog_sec = 5.0;  // bounds the validator's publish-stall wait
  return o;
}

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
  ScopedOptions opts(validate_only());
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
  ScopedOptions opts(validate_only());
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
  ScopedOptions opts(validate_only());
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
  // Seq 0 already diverges, and the report carries the per-rank tail.
  ScopedOptions opts(validate_only());
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

TEST(CollectiveMatching, BlockingVsNonblockingMixIsDetected) {
  // Same op, same payload — but rank 1 issues it through the i* path.
  // On real NCCL this ordering hazard deadlocks streams; here it must
  // surface as a structured error on the handle.
  ScopedOptions opts(validate_only());
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{4}}, 1.0f);
    if (c.rank() == 0) {
      SiteGuard sg("test.blocking_side");
      c.all_reduce(x);
    } else {
      SiteGuard sg("test.nonblocking_side");
      comm::CommHandle h = c.iall_reduce(x);
      h.wait();
    }
  });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[blocking]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[nonblocking]"), std::string::npos) << msg;
}

TEST(CollectiveMatching, SequenceParallelOnOneRankOnly) {
  // The paper-level failure mode (§4.2.2): rank 0 thinks the layer
  // boundary is g (all-gather of its sequence shard), rank 1 thinks it
  // is f̄ (all-reduce of the full activation). The report must name the
  // conjugate-pair call sites, not just raw collective kinds.
  ScopedOptions opts(validate_only());
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
  // Rank 0 issues nothing; rank 1's validator cannot wait forever for a
  // record that will never be published.
  Options o = validate_only();
  o.watchdog_sec = 0.3;
  ScopedOptions opts(o);
  const std::string msg = run_expect_error(2, [](comm::Comm& c) {
    if (c.rank() == 1) {
      SiteGuard sg("test.orphan_reduce");
      Tensor x = Tensor::full(Shape{{4}}, 1.0f);
      c.all_reduce(x);
    }
  });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.orphan_reduce"), std::string::npos) << msg;
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

// --------------------------------------------------- handle leak audit

TEST(HandleLeaks, UnwaitedIsendAtDrainIsCaught) {
  // The pipeline-drain bug class: a boundary isend whose handle is
  // dropped without wait() — nobody can ever observe its failure. The
  // registry audit runs when the communicator's last handle copy dies
  // (inside spmd::run) and counts the orphan.
  analysis::reset_handle_leaks();
  {
    Options o = validate_only();
    ScopedOptions opts(o);
    spmd::run(2, [](comm::Comm& c) {
      if (c.rank() == 0) {
        SiteGuard sg("test.leaky_isend");
        Tensor x = Tensor::full(Shape{{4}}, 1.0f);
        comm::CommHandle h = c.isend(1, /*tag=*/3, x);  // lint:allow(unwaited-handle)
        // h deliberately dropped un-waited.
      } else {
        c.recv(0, /*tag=*/3);
      }
    });
  }
  EXPECT_EQ(analysis::handle_leaks(), 1);
  analysis::reset_handle_leaks();
}

TEST(HandleLeaks, WaitedAndAbandonedHandlesDoNotCount) {
  analysis::reset_handle_leaks();
  {
    ScopedOptions opts(validate_only());
    spmd::run(2, [](comm::Comm& c) {
      Tensor x = Tensor::full(Shape{{4}}, 1.0f);
      comm::CommHandle waited = c.iall_reduce(x);
      waited.wait();
      if (c.rank() == 0) {
        // An explicitly-abandoned best-effort send is not a leak.
        comm::CommHandle fire_and_forget = c.isend(1, /*tag=*/9, x);
        fire_and_forget.abandon();
      } else {
        c.recv(0, /*tag=*/9);
      }
    });
  }
  EXPECT_EQ(analysis::handle_leaks(), 0);
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

// One t=2, p=2 (SP + selective recompute) training run; returns every
// step's loss and every rank's per-communicator traffic.
std::pair<std::vector<float>, std::vector<RankTraffic>> train_t2p2(int steps) {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 4 * cfg.b;
  cfg.validate();

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

TEST(AnalyzerTransparency, TrainingStepBitIdenticalWithAnalyzerOn) {
  // Acceptance criterion: full t=2/p=2 step with validation + watchdog
  // enabled produces bit-identical losses and identical TrafficStats to
  // the analyzer-off run — the ledger observes, it never participates.
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
  EXPECT_EQ(analysis::handle_leaks(), 0);
}

// A well-formed multi-collective program under full validation: every
// op matches, nothing throws, nothing leaks, the watchdog stays quiet.
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
    comm::CommHandle h = sub.iall_gather(y, 0);
    h.wait();
    c.barrier();
  });
}

}  // namespace
}  // namespace mls
