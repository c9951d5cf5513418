// Serving-plane tests: the paged continuous-batching decode path must
// emit bit-identical tokens to model::generate() for every sequence in
// a mixed batch (serial, on a t=2 TP grid and under the reference
// kernels), plus block-table stress (admit/evict/reuse under
// preemption, fragmentation bounds, poisoned teardown), the
// whole-sequence worst-case counterfactual, the report's budget fields
// and the KV-bytes MemoryTracker axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "comm/spmd.h"
#include "common/memtracker.h"
#include "core/env.h"
#include "model/generate.h"
#include "serve/report.h"
#include "serve/traffic.h"

namespace mls {
namespace {

using model::ModelConfig;
using serve::ContinuousBatchScheduler;
using serve::FinishReason;
using serve::Request;
using serve::ServeConfig;

// A batch mixing prompt lengths, output budgets and temperatures, all
// fitting the trained window (no overflow — that case has its own
// test). Content is an arbitrary deterministic pattern.
std::vector<Request> mixed_requests(const ModelConfig& cfg) {
  const int64_t plens[] = {1, 3, 5, 2, 4, 1};
  const int64_t news[] = {6, 4, 8, 5, 3, 7};
  const float temps[] = {0.0f, 0.7f, 0.0f, 1.3f, 0.9f, 0.0f};
  std::vector<Request> reqs;
  for (int64_t i = 0; i < 6; ++i) {
    Request r;
    r.id = i;
    for (int64_t j = 0; j < plens[i]; ++j) {
      r.prompt.push_back((3 + 7 * j + 11 * i) % cfg.v);
    }
    r.max_new_tokens = news[i];
    r.temperature = temps[i];
    r.seed = 100 + static_cast<uint64_t>(i);
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

// Runs every request through the scheduler until drained. Stats are
// snapshotted by value: `kv` right before teardown (live pool state),
// then blocks/bytes re-checked empty via `kv_after_drain`.
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

TEST(Serve, PagedDecodeMatchesGenerateSerial) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = mixed_requests(cfg);
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) ref[r.id] = generate_reference(m, r);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 256;
    scfg.max_batch = 4;  // forces queueing; admissions mid-flight
    const auto got = serve_all(m, scfg, reqs);
    ASSERT_EQ(got.tokens.size(), reqs.size());
    for (const auto& r : reqs) {
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
    }
  });
}

TEST(Serve, PagedDecodeMatchesGenerateTP2) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.b = 1;
  spmd::run(2, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = mixed_requests(cfg);
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) ref[r.id] = generate_reference(m, r);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 256;
    scfg.max_batch = 4;
    const auto got = serve_all(m, scfg, reqs);
    ASSERT_EQ(got.tokens.size(), reqs.size());
    for (const auto& r : reqs) {
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
    }
  });
}

TEST(Serve, PagedDecodeMatchesGenerateUnderReferenceKernels) {
  // MLS_KERNEL_REF=1 routes the full path's GEMMs through gemm_ref, and
  // kernels::decode_attention follows gemm_ref's chains there too, so
  // decode still samples generate()'s tokens bit for bit.
  core::Env::set("MLS_KERNEL_REF", "1");
  struct Restore {
    ~Restore() { core::Env::clear("MLS_KERNEL_REF"); }
  } restore;
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.b = 1;
  spmd::run(2, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = mixed_requests(cfg);
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) ref[r.id] = generate_reference(m, r);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 256;
    scfg.max_batch = 4;
    const auto got = serve_all(m, scfg, reqs);
    ASSERT_EQ(got.tokens.size(), reqs.size());
    for (const auto& r : reqs) {
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
    }
  });
}

TEST(Serve, SequenceParallelModelDecodesIdentically) {
  // An SP-trained model serves through TP-style decode collectives
  // (DESIGN.md §11): same weight shards, and at t=2 the different
  // collective decompositions sum in an order-free two-operand way, so
  // tokens still match the SP full-window generate() bit for bit.
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.b = 1;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  spmd::run(2, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = mixed_requests(cfg);
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) ref[r.id] = generate_reference(m, r);
    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 256;
    scfg.max_batch = 6;
    const auto got = serve_all(m, scfg, reqs);
    for (const auto& r : reqs) {
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
    }
  });
}

TEST(Serve, PagedReservesLessThanWholeSequenceWorstCase) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    ServeConfig scfg;
    scfg.block_tokens = 2;
    scfg.kv_budget_tokens = 256;
    scfg.max_batch = 6;
    const auto got = serve_all(m, scfg, mixed_requests(cfg));

    // The budget covers max_batch x every request's worst case, so a
    // whole-sequence cache would admit on the same steps; 11008 bytes is
    // the reserved peak the deleted naive cache measured on this run.
    EXPECT_EQ(got.kv.worst_case_peak, 11008);
    EXPECT_EQ(got.kv.worst_case_reserved, 0) << "released on retirement";
    // The block table grows a sequence page by page instead of holding
    // its worst case from admission to retirement.
    EXPECT_LT(got.kv.reserved_peak, got.kv.worst_case_peak);
    EXPECT_GE(got.kv.reserved_peak, got.kv.used_peak);
  });
}

TEST(Serve, OverlapFieldIsRejected) {
  // ServeConfig::overlap selects nothing (the split-batch decode it
  // named is gone); setting it must fail loudly, never be ignored.
  ServeConfig scfg;
  scfg.overlap = true;
  EXPECT_THROW(scfg.validate(), Error);
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    EXPECT_THROW(ContinuousBatchScheduler(m, scfg), Error);
  });
}

TEST(Serve, UnpagedFieldIsRejected) {
  // ServeConfig::paged = false selected the deleted naive cache; it
  // must fail loudly, never silently run the block table.
  ServeConfig scfg;
  scfg.paged = false;
  EXPECT_THROW(scfg.validate(), Error);
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    EXPECT_THROW(ContinuousBatchScheduler(m, scfg), Error);
  });
}

TEST(Serve, ZeroBlockTokensIsRejectedNotSigfpe) {
  // The KV cache is built from the config in the scheduler's
  // initializer list; validation must run before it, or a zero block
  // size divides by zero instead of raising the validation error.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    for (const int64_t budget : {int64_t{-1}, int64_t{1} << 20}) {
      ServeConfig scfg;
      scfg.block_tokens = 0;
      scfg.mem_budget_bytes = budget;
      EXPECT_THROW(ContinuousBatchScheduler(m, scfg), Error);
    }
  });
}

TEST(Serve, PreemptionRecomputesAndReusesBlocks) {
  // A pool far smaller than the working set: sequences are evicted and
  // re-prefilled, yet every output still matches generate(), and all
  // blocks return to the free list when the cache drains.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const auto reqs = mixed_requests(cfg);
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) ref[r.id] = generate_reference(m, r);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 24;  // 6 blocks for 6 requests
    scfg.max_batch = 6;
    const auto got = serve_all(m, scfg, reqs);
    for (const auto& r : reqs) {
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
    }
    EXPECT_GT(got.stats.preemptions, 0) << "pool was sized to force eviction";
    EXPECT_EQ(got.kv.blocks_free, got.kv.blocks_total);
    EXPECT_EQ(got.kv.reserved_bytes, 0);
    EXPECT_EQ(got.kv.used_bytes, 0);
    EXPECT_GT(got.kv.reserve_failures, 0);
    EXPECT_GT(got.kv.used_peak, 0);
  });
}

TEST(Serve, ContextOverflowRetiresCleanly) {
  // Where the batch-of-one path throws ContextOverflowError, the
  // scheduler retires the sequence with kContextOverflow after
  // generating exactly the tokens generate() produces before throwing —
  // and keeps serving its batchmates.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    Request over;
    over.id = 0;
    over.prompt = {4, 9, 2};
    over.max_new_tokens = cfg.s * 3;  // cannot fit the window
    Request ok;
    ok.id = 1;
    ok.prompt = {7};
    ok.max_new_tokens = 5;

    EXPECT_THROW(generate_reference(m, over), model::ContextOverflowError);
    // The overflow point: generate() samples s - prompt + 1 tokens
    // before needing position s.
    Request capped = over;
    capped.max_new_tokens =
        cfg.s - static_cast<int64_t>(over.prompt.size()) + 1;
    const auto ref_over = generate_reference(m, capped);
    const auto ref_ok = generate_reference(m, ok);

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 256;
    scfg.max_batch = 4;
    const auto got = serve_all(m, scfg, {over, ok});
    EXPECT_EQ(got.reasons.at(0), FinishReason::kContextOverflow);
    EXPECT_EQ(got.reasons.at(1), FinishReason::kCompleted);
    EXPECT_EQ(got.tokens.at(0), ref_over);
    EXPECT_EQ(got.tokens.at(1), ref_ok);
  });
}

TEST(Serve, ImpossibleRequestsAreRejected) {
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    Request too_long;
    too_long.id = 0;
    too_long.prompt.assign(static_cast<size_t>(cfg.s + 1), 1);
    too_long.max_new_tokens = 1;
    Request too_big;  // worst case exceeds the whole KV budget
    too_big.id = 1;
    too_big.prompt = {1, 2, 3, 4, 5, 6, 7, 8};
    too_big.max_new_tokens = cfg.s;
    Request fine;
    fine.id = 2;
    fine.prompt = {5};
    fine.max_new_tokens = 3;

    ServeConfig scfg;
    scfg.block_tokens = 2;
    scfg.kv_budget_tokens = 8;  // 4 blocks; too_big needs 16 positions
    scfg.max_batch = 4;
    const auto got = serve_all(m, scfg, {too_long, too_big, fine});
    EXPECT_EQ(got.reasons.at(0), FinishReason::kRejected);
    EXPECT_EQ(got.reasons.at(1), FinishReason::kRejected);
    EXPECT_EQ(got.reasons.at(2), FinishReason::kCompleted);
    EXPECT_EQ(got.tokens.at(0).size(), too_long.prompt.size());  // untouched
    EXPECT_EQ(got.tokens.at(2).size(), 4u);
  });
}

TEST(Serve, PoisonedRankTearsDownCleanlyAndWorldRestarts) {
  // A rank failing mid-step must unblock its peer (poisoned
  // collectives), unwind with every sequence's blocks freed, and leave
  // the process healthy enough to serve a fresh world.
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.b = 1;
  const auto serve_once = [&](bool fail) {
    spmd::run(2, [&](comm::Comm& c) {
      model::GPTModel m(cfg, c);
      ServeConfig scfg;
      scfg.block_tokens = 4;
      scfg.kv_budget_tokens = 256;
      scfg.max_batch = 6;
      ContinuousBatchScheduler sched(m, scfg);
      if (fail && c.rank() == 1) {
        sched.set_step_hook([](int64_t step) {
          if (step == 3) throw Error("injected serve fault");
        });
      }
      for (const Request& r : mixed_requests(cfg)) sched.submit(r);
      while (!sched.idle()) sched.step();
    });
  };
  EXPECT_THROW(serve_once(true), Error);
  serve_once(false);  // a fresh world serves normally afterwards
}

TEST(Serve, ClosedLoopTrafficDrainsDeterministically) {
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    serve::TrafficConfig tcfg;
    tcfg.clients = 8;
    tcfg.total_requests = 24;
    tcfg.temperature = 0.8f;
    const auto run_once = [&]() {
      ServeConfig scfg;
      scfg.block_tokens = 4;
      scfg.kv_budget_tokens = 128;
      scfg.max_batch = 8;
      ContinuousBatchScheduler sched(m, scfg);
      serve::ClosedLoopTraffic traffic(tcfg, cfg.v, cfg.s);
      auto completions = serve::run_closed_loop(sched, traffic);
      std::map<int64_t, std::vector<int64_t>> by_id;
      for (auto& comp : completions) by_id[comp.request.id] = comp.tokens;
      return by_id;
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.size(), 24u);
    EXPECT_EQ(a, b) << "same seed => same request stream => same tokens";
  });
}

TEST(Serve, KvAxisAndAllocatorStatsAreWired) {
  ModelConfig cfg = ModelConfig::tiny(1, 1);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    MemoryTracker::instance().reset();
    Request r;
    r.id = 0;
    r.prompt = {1, 2};
    r.max_new_tokens = 6;

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 64;
    int64_t kv_mid = -1;
    {
      ContinuousBatchScheduler sched(m, scfg);
      sched.set_step_hook([&](int64_t step) {
        if (step == 2) kv_mid = MemoryTracker::instance().kv_bytes();
      });
      sched.submit(r);
      while (!sched.idle()) sched.step();
    }
    EXPECT_GT(kv_mid, 0) << "KV axis should charge while decoding";
    EXPECT_EQ(MemoryTracker::instance().kv_bytes(), 0);
    EXPECT_GE(MemoryTracker::instance().kv_peak_bytes(), kv_mid);

    const memory::AllocStats st = MemoryTracker::instance().allocator_stats();
    EXPECT_GT(st.physical_bytes, 0);
    EXPECT_GE(st.physical_peak, st.physical_bytes);
    EXPECT_FALSE(st.json().empty());
  });
}

TEST(Serve, ReportCarriesEffectiveBudget) {
  // The report reads the scheduler's post-clamp config: with a byte
  // ceiling clamping the pool, it records the effective token budget,
  // not the configured one.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 4096;
    const auto layout = serve::kv_layout(cfg, cfg.t, scfg.block_tokens);
    scfg.mem_budget_bytes = layout.logical_bytes_per_token() * 32;
    ContinuousBatchScheduler sched(m, scfg);
    std::vector<serve::Completion> done;
    for (const Request& r : mixed_requests(cfg)) sched.submit(r);
    while (!sched.idle()) {
      for (auto& comp : sched.step()) done.push_back(std::move(comp));
    }
    const serve::ServeReport rep = serve::ServeReport::build(
        "clamped", done, sched, MemoryTracker::instance().allocator_stats(),
        /*wall_s=*/1.0);
    EXPECT_LT(sched.config().kv_budget_tokens, scfg.kv_budget_tokens);
    EXPECT_EQ(rep.kv_budget_tokens, sched.config().kv_budget_tokens);
    EXPECT_EQ(rep.mem_budget_bytes, scfg.mem_budget_bytes);
    EXPECT_EQ(rep.kv_worst_case_peak_bytes, sched.kv_stats().worst_case_peak);
    EXPECT_NE(rep.json().find("\"kv_budget_tokens\":" +
                              std::to_string(rep.kv_budget_tokens) + ","),
              std::string::npos);
  });
}

TEST(Serve, StopTokenRetiresEarlyAndReclaimsBlocks) {
  // A request with a stop token that fires mid-decode must retire as
  // kCompleted with the stop token included (matching generate()'s
  // early break), and its paged blocks — reserved for the full
  // max_new_tokens worst case — must return to the pool that same step.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    const std::vector<int64_t> prompt = {3};
    const int64_t budget = 10;

    // Learn what greedy decode emits, then stop on its 3rd new token.
    model::GenerateOptions probe;
    probe.max_new_tokens = budget;
    const std::vector<int64_t> free_run = model::generate(m, prompt, probe);
    ASSERT_EQ(free_run.size(), prompt.size() + budget);
    const int64_t stop = free_run[prompt.size() + 2];

    model::GenerateOptions o = probe;
    o.stop_tokens = {stop};
    const std::vector<int64_t> ref = model::generate(m, prompt, o);
    ASSERT_LE(ref.size(), prompt.size() + 3);
    ASSERT_EQ(ref.back(), stop);

    Request r;
    r.id = 7;
    r.prompt = prompt;
    r.max_new_tokens = budget;
    r.stop_tokens = {stop};

    ServeConfig scfg;
    scfg.block_tokens = 2;
    scfg.kv_budget_tokens = 64;
    ContinuousBatchScheduler sched(m, scfg);
    const int64_t blocks_total = sched.kv_stats().blocks_total;
    // The hook runs after this step's KV reservations and before
    // retirement, so it observes the blocks the sequence is holding.
    int64_t min_free = blocks_total;
    sched.set_step_hook([&](int64_t) {
      min_free = std::min(min_free, sched.kv_stats().blocks_free);
    });
    sched.submit(r);
    std::vector<serve::Completion> done;
    while (!sched.idle()) {
      for (auto& comp : sched.step()) done.push_back(std::move(comp));
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].reason, FinishReason::kCompleted);
    EXPECT_EQ(done[0].tokens, ref);
    EXPECT_LT(done[0].generated(), budget) << "must stop before the budget";
    // Blocks were in use mid-decode and all came back at retirement —
    // the early finisher's unused tail is available to the queue again.
    EXPECT_LT(min_free, blocks_total);
    EXPECT_EQ(sched.kv_stats().blocks_free, blocks_total);
    EXPECT_EQ(sched.kv_stats().sequences_freed, 1);
  });
}

TEST(Serve, StopTokenParityWithGenerateAcrossBatch) {
  // Every request carries a stop set; the batched continuous scheduler
  // must emit exactly the tokens model::generate() produces for the
  // same (prompt, options, stop set) — whether or not the stop fires.
  ModelConfig cfg = ModelConfig::tiny(1, 2);
  cfg.b = 1;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    auto reqs = mixed_requests(cfg);
    // Sampling is a pure function of (seed, step), so a probe run tells
    // us exactly what each request will emit. Even ids stop on their
    // 2nd generated token (guaranteed early); odd ids get a stop token
    // chosen off the probe's trajectory (guaranteed full budget).
    for (size_t i = 0; i < reqs.size(); ++i) {
      model::GenerateOptions probe;
      probe.max_new_tokens = reqs[i].max_new_tokens;
      probe.temperature = reqs[i].temperature;
      probe.seed = reqs[i].seed;
      const auto run = model::generate(m, reqs[i].prompt, probe);
      if (i % 2 == 0) {
        reqs[i].stop_tokens = {run[reqs[i].prompt.size() + 1]};
      } else {
        int64_t avoid = 0;
        while (std::find(run.begin() + static_cast<int64_t>(
                                           reqs[i].prompt.size()),
                         run.end(), avoid) != run.end()) {
          ++avoid;
        }
        reqs[i].stop_tokens = {avoid};
      }
    }
    std::map<int64_t, std::vector<int64_t>> ref;
    for (const auto& r : reqs) {
      model::GenerateOptions o;
      o.max_new_tokens = r.max_new_tokens;
      o.temperature = r.temperature;
      o.seed = r.seed;
      o.stop_tokens = r.stop_tokens;
      ref[r.id] = model::generate(m, r.prompt, o);
    }

    ServeConfig scfg;
    scfg.block_tokens = 4;
    scfg.kv_budget_tokens = 256;
    scfg.max_batch = 4;
    const auto got = serve_all(m, scfg, reqs);
    ASSERT_EQ(got.tokens.size(), reqs.size());
    bool any_early = false;
    for (const auto& r : reqs) {
      EXPECT_EQ(got.tokens.at(r.id), ref.at(r.id)) << "request " << r.id;
      EXPECT_EQ(got.reasons.at(r.id), FinishReason::kCompleted);
      any_early |= static_cast<int64_t>(got.tokens.at(r.id).size() -
                                        r.prompt.size()) < r.max_new_tokens;
    }
    EXPECT_TRUE(any_early) << "stop sets should fire for at least one request";
  });
}

}  // namespace
}  // namespace mls
