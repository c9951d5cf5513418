// Tests for the per-rank caching allocator (src/memory/pool_allocator)
// and the Storage layer on top of it: block reuse across steps,
// best-fit with split, coalescing, cross-thread frees (peer ranks
// releasing rank-owned buffers), teardown
// draining, and the acceptance invariant that pooling changes no
// numerics — t=2/p=2 training is bit-identical in losses and
// TrafficStats with MLS_ALLOC_POOL on vs off, while the pool serves
// >= 90% of steady-state allocations. The whole suite also runs under
// the asan-ubsan CI job (MLS_ASAN=ON), which checks every pool path is
// ASan- and leak-clean.
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "core/env.h"
#include "memory/pool_allocator.h"
#include "model/config.h"
#include "optim/optim.h"
#include "pipeline/executor.h"
#include "tensor/tensor.h"

namespace mls {
namespace {

using memory::PoolAllocator;

// Deliberately tiny geometry so bucket behaviour is exercised with
// byte-sized allocations: 512 B granule, 4 KiB small/large boundary,
// 16 KiB small-pool slabs.
PoolAllocator::Config tiny_cfg() {
  PoolAllocator::Config c;
  c.enabled = true;
  c.round = 512;
  c.small_limit = 4096;
  c.small_segment = 16384;
  c.max_cached = -1;
  c.report_at_exit = false;
  return c;
}

TEST(PoolAllocator, ReuseAcrossSteps) {
  PoolAllocator arena(tiny_cfg(), "reuse");
  float* p1 = arena.allocate(100000);
  arena.deallocate(p1);
  float* p2 = arena.allocate(100000);
  EXPECT_EQ(p1, p2) << "freed block must be recycled";
  const auto s = arena.stats();
  EXPECT_EQ(s.allocs, 2);
  EXPECT_EQ(s.pool_hits, 1);
  EXPECT_EQ(s.pool_misses, 1);
  EXPECT_EQ(s.frees, 1);
  arena.deallocate(p2);
}

TEST(PoolAllocator, SmallRequestsShareASlabAndSplit) {
  PoolAllocator arena(tiny_cfg(), "split");
  float* a = arena.allocate(512);
  auto s = arena.stats();
  // One slab obtained, the request split off its front.
  EXPECT_EQ(s.pool_misses, 1);
  EXPECT_EQ(s.physical_bytes, 16384);
  EXPECT_EQ(s.bytes_in_use, 512);
  EXPECT_EQ(s.bytes_cached, 16384 - 512);
  EXPECT_GE(s.splits, 1);
  // The second small request is carved from the same slab: a hit, no
  // new physical memory.
  float* b = arena.allocate(1024);
  s = arena.stats();
  EXPECT_EQ(s.pool_misses, 1);
  EXPECT_EQ(s.pool_hits, 1);
  EXPECT_EQ(s.physical_bytes, 16384);
  arena.deallocate(a);
  arena.deallocate(b);
}

TEST(PoolAllocator, BestFitPicksSmallestSufficientBlock) {
  PoolAllocator arena(tiny_cfg(), "bestfit");
  // Two large blocks (own segments), freed: free list holds 8192 and
  // 16384. A 6144-byte request must take the 8192 block.
  float* small_seg = arena.allocate(8192);
  float* big_seg = arena.allocate(16384);
  arena.deallocate(small_seg);
  arena.deallocate(big_seg);
  float* p = arena.allocate(6144);
  EXPECT_EQ(p, small_seg);
  const auto s = arena.stats();
  EXPECT_GE(s.splits, 1);  // 8192 -> 6144 + 2048 remainder
  arena.deallocate(p);
}

TEST(PoolAllocator, CoalesceThenTrimReleasesSegments) {
  PoolAllocator arena(tiny_cfg(), "coalesce");
  float* a = arena.allocate(512);
  float* b = arena.allocate(512);
  float* c = arena.allocate(512);
  // Free in an order that exercises both merge directions.
  arena.deallocate(a);
  arena.deallocate(c);
  arena.deallocate(b);
  auto s = arena.stats();
  EXPECT_GE(s.coalesces, 2);
  EXPECT_EQ(s.bytes_in_use, 0);
  EXPECT_EQ(s.bytes_cached, 16384);
  EXPECT_EQ(s.largest_free_block, 16384) << "churn must coalesce fully";
  // Teardown valve: a fully-free segment goes back to the system.
  arena.trim();
  s = arena.stats();
  EXPECT_EQ(s.bytes_cached, 0);
  EXPECT_EQ(s.physical_bytes, 0);
  EXPECT_EQ(s.segments, 0);
}

TEST(PoolAllocator, CrossThreadFreeDrainsIntoOwnerPool) {
  PoolAllocator arena(tiny_cfg(), "xthread");
  float* p = arena.allocate(2048);
  // A foreign thread (stand-in for a peer rank) releases the
  // owner's buffer: it must enqueue, not mutate the pool.
  std::thread([&] { arena.deallocate(p); }).join();
  const auto s = arena.stats();  // drains the pending queue
  EXPECT_EQ(s.cross_thread_frees, 1);
  EXPECT_EQ(s.frees, 1);
  EXPECT_EQ(s.bytes_in_use, 0);
  float* q = arena.allocate(2048);
  EXPECT_EQ(p, q) << "drained buffer must be reusable";
  EXPECT_EQ(arena.stats().pool_hits, 1);
  arena.deallocate(q);
}

TEST(PoolAllocator, PassthroughModeWhenDisabled) {
  PoolAllocator::Config cfg = tiny_cfg();
  cfg.enabled = false;
  PoolAllocator arena(cfg, "passthrough");
  float* p = arena.allocate(4096);
  auto s = arena.stats();
  EXPECT_EQ(s.pool_hits, 0);
  EXPECT_EQ(s.bytes_cached, 0);
  EXPECT_EQ(s.physical_bytes, 4096);
  arena.deallocate(p);
  s = arena.stats();
  EXPECT_EQ(s.physical_bytes, 0) << "disabled pool must not cache";
  EXPECT_EQ(s.bytes_in_use, 0);
}

TEST(PoolAllocator, MaxCachedCapReleasesFreeSegments) {
  PoolAllocator::Config cfg = tiny_cfg();
  cfg.max_cached = 0;  // cache nothing that can be released
  PoolAllocator arena(cfg, "capped");
  float* p = arena.allocate(8192);  // large: its own segment
  EXPECT_EQ(arena.stats().physical_bytes, 8192);
  arena.deallocate(p);
  const auto s = arena.stats();
  EXPECT_EQ(s.bytes_cached, 0);
  EXPECT_EQ(s.physical_bytes, 0);
}

TEST(PoolAllocator, PhysicalPeakTracksHighWater) {
  PoolAllocator arena(tiny_cfg(), "peak");
  float* a = arena.allocate(8192);
  float* b = arena.allocate(8192);
  arena.deallocate(a);
  arena.deallocate(b);
  auto s = arena.stats();
  EXPECT_EQ(s.physical_peak, 16384);
  EXPECT_EQ(s.in_use_peak, 16384);
  EXPECT_EQ(s.bytes_in_use, 0);
  // The in-use axis keeps moving even when requests are pure cache
  // hits — unlike physical_peak, which only tracks segment acquisition.
  arena.reset_physical_peak();
  float* c = arena.allocate(8192);
  s = arena.stats();
  EXPECT_EQ(s.physical_peak, s.physical_bytes) << "no new segment";
  EXPECT_EQ(s.in_use_peak, 8192);
  arena.deallocate(c);
  arena.trim();
  EXPECT_EQ(arena.stats().physical_bytes, 0);
  arena.reset_physical_peak();
  EXPECT_EQ(arena.stats().physical_peak, arena.stats().physical_bytes);
  EXPECT_EQ(arena.stats().in_use_peak, 0);
}

// Tensor-level behaviour uses the thread arena; run on a fresh thread
// so this test owns an isolated pool.
TEST(Storage, TensorReleaseReturnsBufferToPoolUnzeroed) {
  bool same_ptr = false;
  float stale = 0.f;
  int64_t hits = 0;
  std::thread([&] {
    const auto& arena = PoolAllocator::this_thread();
    const auto s0 = arena->stats();
    // > 1 MiB (the default small/large boundary): its own segment.
    Tensor t = Tensor::empty(Shape{{1 << 19}});
    float* p = t.data();
    p[0] = 42.f;
    t.release();  // Appendix B deallocation: bytes go back to the pool
    Tensor u = Tensor::empty(Shape{{1 << 19}});
    same_ptr = (u.data() == p);
    stale = u.data()[0];
    hits = arena->stats().pool_hits - s0.pool_hits;
  }).join();
  EXPECT_TRUE(same_ptr);
  // empty() must hand back uninitialized storage: the recycled block
  // still carries the previous tenant's bytes, proving no memset.
  EXPECT_EQ(stale, 42.f);
  EXPECT_GE(hits, 1);
}

TEST(Storage, MemoryTrackerExposesPhysicalAxis) {
  int64_t before = 0, during = 0, peak = 0;
  std::thread([&] {
    auto& mt = MemoryTracker::instance();
    before = mt.physical_bytes();
    Tensor t = Tensor::zeros(Shape{{1 << 19}});
    during = mt.physical_bytes();
    peak = mt.physical_peak_bytes();
    EXPECT_FALSE(mt.allocator_report().empty());
  }).join();
  EXPECT_GE(during - before, static_cast<int64_t>(sizeof(float)) * (1 << 19));
  EXPECT_GE(peak, during);
}

// A peer rank consuming a mailbox message frees a buffer the sender's
// arena owns: the cross-thread queue must route it home.
TEST(Allocator, MailboxMessageFreedByPeerRank) {
  spmd::run(2, [&](comm::Comm& c) {
    const auto& arena = PoolAllocator::this_thread();
    const auto s0 = arena->stats();
    if (c.rank() == 0) {
      Tensor t = Tensor::full(Shape{{64}}, 3.f);
      c.send(1, /*tag=*/7, t);
    } else {
      Tensor got = c.recv(0, /*tag=*/7);
      EXPECT_EQ(got.data()[0], 3.f);
      got = Tensor();  // drop rank 0's buffer from rank 1's thread
    }
    c.barrier();
    if (c.rank() == 0) {
      const auto s1 = arena->stats();  // drains the pending queue
      EXPECT_GE(s1.cross_thread_frees - s0.cross_thread_frees, 1);
    }
  });
}

// A poisoned run (one rank throws mid-step) must unwind every rank and
// tear the arenas down without leaking — the asan-ubsan CI job runs
// this suite with detect_leaks=1.
TEST(Allocator, PoisonedRunTearsDownCleanly) {
  EXPECT_THROW(
      spmd::run(2,
                [&](comm::Comm& c) {
                  Rng rng(1);
                  Tensor t = Tensor::randn(Shape{{64, 64}}, rng);
                  if (c.rank() == 1) throw std::runtime_error("boom");
                  c.barrier();  // unblocked by the poison
                }),
      std::exception);
}

// ---------------------------------------------------------------------
// Acceptance: pooling is numerically invisible and actually hot.

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

struct TrainResult {
  std::vector<float> losses;
  std::vector<RankTraffic> traffic;
  std::vector<double> steady_hit_rate;  // per rank, steps 2..n
  std::vector<int64_t> physical_peak;   // per rank
};

// One t=2/p=2 (SP + selective recompute) training run. Selective
// recompute makes every backward replay the attention core, so the
// checkpoint-replay path exercises pooled-buffer reuse each step.
TrainResult train_t2p2(int steps) {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 4 * cfg.b;
  cfg.validate();

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
  TrainResult out;
  out.traffic.resize(static_cast<size_t>(world));
  out.steady_hit_rate.resize(static_cast<size_t>(world), 0.0);
  out.physical_peak.resize(static_cast<size_t>(world), 0);
  spmd::run(world, [&](comm::Comm& c) {
    MemoryTracker::instance().reset();
    pipeline::PipelineEngine engine(cfg, c);
    optim::Sgd opt(engine.params(), 0.05f);
    std::vector<float> local;
    const auto& arena = PoolAllocator::this_thread();
    memory::AllocStats warm{};
    for (int step = 0; step < steps; ++step) {
      opt.zero_grad();
      auto stats = engine.run_iteration(tokens, targets, step);
      opt.step();
      local.push_back(stats.loss);
      if (step == 0) warm = arena->stats();  // end of the cold step
    }
    const auto end = arena->stats();
    const int64_t hits = end.pool_hits - warm.pool_hits;
    const int64_t misses = end.pool_misses - warm.pool_misses;
    const int64_t total = hits + misses;
    auto& slot = out.traffic[static_cast<size_t>(c.rank())];
    slot.tp = engine.tp_comm().stats();
    slot.pp = engine.pp_comm().stats();
    slot.dp = engine.dp_comm().stats();
    out.steady_hit_rate[static_cast<size_t>(c.rank())] =
        total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    out.physical_peak[static_cast<size_t>(c.rank())] = end.physical_peak;
    if (c.rank() == 0) out.losses = local;
  });
  return out;
}

TEST(AllocatorTransparency, TrainingBitIdenticalPoolOnVsOff) {
  const int steps = 3;
  core::Env::set("MLS_ALLOC_POOL", "0");
  TrainResult off = train_t2p2(steps);
  core::Env::set("MLS_ALLOC_POOL", "1");
  TrainResult on = train_t2p2(steps);
  core::Env::clear("MLS_ALLOC_POOL");

  // Bitwise loss equality and field-identical traffic: the pool serves
  // bytes, it never touches the math or the collective sequence.
  ASSERT_EQ(off.losses.size(), on.losses.size());
  for (size_t i = 0; i < off.losses.size(); ++i) {
    EXPECT_EQ(off.losses[i], on.losses[i]) << "step " << i;
  }
  ASSERT_EQ(off.traffic.size(), on.traffic.size());
  for (size_t r = 0; r < off.traffic.size(); ++r) {
    expect_stats_eq(off.traffic[r].tp, on.traffic[r].tp, "tp",
                    static_cast<int>(r));
    expect_stats_eq(off.traffic[r].pp, on.traffic[r].pp, "pp",
                    static_cast<int>(r));
    expect_stats_eq(off.traffic[r].dp, on.traffic[r].dp, "dp",
                    static_cast<int>(r));
  }

  for (size_t r = 0; r < on.steady_hit_rate.size(); ++r) {
    // Acceptance: after the cold first step, >= 90% of allocations are
    // served from the pool (includes every checkpoint-replay buffer).
    EXPECT_GE(on.steady_hit_rate[r], 0.90) << "rank " << r;
    EXPECT_GT(on.physical_peak[r], 0) << "rank " << r;
    // Passthrough mode never hits by construction.
    EXPECT_EQ(off.steady_hit_rate[r], 0.0) << "rank " << r;
  }
}

}  // namespace
}  // namespace mls
