// Tests for the runtime subsystem: streams/events, nonblocking
// collectives (bit-identical results and traffic vs their blocking
// twins), and the streamed attention core nested in a full-layer
// checkpoint, whose dropout replay must be bit-exact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/engine.h"
#include "autograd/functions.h"
#include "comm/spmd.h"
#include "common/rng.h"
#include "core/collectives.h"
#include "core/parallel_plan.h"
#include "runtime/stream.h"

namespace mls {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ------------------------------------------------------------- stream

TEST(Stream, RunsTasksInFifoOrder) {
  runtime::Stream s("test");
  std::vector<int> order;  // only the worker thread writes
  for (int i = 0; i < 16; ++i) s.enqueue([&order, i] { order.push_back(i); });
  s.synchronize();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(s.tasks_executed(), 16);
}

TEST(Stream, EventReadyAfterPrecedingWork) {
  runtime::Stream s;
  std::atomic<bool> before{false};
  s.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    before = true;
  });
  runtime::Event e = s.record_event();
  ASSERT_TRUE(e.valid());
  e.wait();
  EXPECT_TRUE(before.load());
  EXPECT_TRUE(e.ready());
  // An event recorded on an idle stream is ready (almost) immediately.
  s.synchronize();
  runtime::Event e2 = s.record_event();
  e2.wait();
  EXPECT_TRUE(e2.ready());
}

TEST(Stream, SynchronizeRethrowsTaskError) {
  runtime::Stream s;
  s.enqueue([] { throw Error("task boom"); });
  std::atomic<bool> later_ran{false};
  s.enqueue([&] { later_ran = true; });  // queue keeps draining
  EXPECT_THROW(s.synchronize(), Error);
  EXPECT_TRUE(later_ran.load());
}

TEST(Stream, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    runtime::Stream s;
    for (int i = 0; i < 8; ++i) s.enqueue([&] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 8);
}

// ------------------------------------------- nonblocking collectives

struct StatsSnapshot {
  comm::TrafficStats s;
  explicit StatsSnapshot(const comm::TrafficStats& in) : s(in) {}
};

void expect_stats_equal(const comm::TrafficStats& a,
                        const comm::TrafficStats& b) {
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.all_reduce_count, b.all_reduce_count);
  EXPECT_EQ(a.all_gather_count, b.all_gather_count);
  EXPECT_EQ(a.reduce_scatter_count, b.reduce_scatter_count);
  EXPECT_EQ(a.broadcast_count, b.broadcast_count);
  EXPECT_EQ(a.p2p_send_count, b.p2p_send_count);
  EXPECT_EQ(a.p2p_bytes_sent, b.p2p_bytes_sent);
  EXPECT_EQ(a.p2p_recv_count, b.p2p_recv_count);
  EXPECT_EQ(a.p2p_bytes_received, b.p2p_bytes_received);
}

class NonblockingTest : public ::testing::TestWithParam<int> {};

TEST_P(NonblockingTest, MatchBlockingBitwiseWithIdenticalTraffic) {
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    Rng rng(40 + static_cast<uint64_t>(c.rank()));
    const Tensor input = Tensor::randn(Shape{{2 * t, 5}}, rng);

    // all-reduce
    Tensor ar_b = input.clone();
    c.stats().reset();
    c.all_reduce(ar_b);
    const StatsSnapshot ar_stats(c.stats());
    Tensor ar_nb = input.clone();
    c.stats().reset();
    comm::CommHandle h = c.iall_reduce(ar_nb);
    h.wait();
    ASSERT_TRUE(bitwise_equal(ar_b, ar_nb));
    expect_stats_equal(ar_stats.s, c.stats());

    // reduce-scatter
    c.stats().reset();
    Tensor rs_b = c.reduce_scatter(input, 0);
    const StatsSnapshot rs_stats(c.stats());
    c.stats().reset();
    Tensor rs_nb = c.ireduce_scatter(input, 0).result();
    ASSERT_TRUE(bitwise_equal(rs_b, rs_nb));
    expect_stats_equal(rs_stats.s, c.stats());

    // all-gather
    c.stats().reset();
    Tensor ag_b = c.all_gather(rs_b, 0);
    const StatsSnapshot ag_stats(c.stats());
    c.stats().reset();
    Tensor ag_nb = c.iall_gather(rs_nb, 0).result();
    ASSERT_TRUE(bitwise_equal(ag_b, ag_nb));
    expect_stats_equal(ag_stats.s, c.stats());
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, NonblockingTest,
                         ::testing::Values(2, 3, 4));

TEST(Nonblocking, IAllReduceLandsInPlace) {
  spmd::run(2, [](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{4}}, static_cast<float>(c.rank() + 1));
    comm::CommHandle h = c.iall_reduce(x);
    ASSERT_TRUE(h.valid());
    h.wait();
    EXPECT_TRUE(h.done());
    for (int64_t i = 0; i < 4; ++i) ASSERT_FLOAT_EQ(x.data()[i], 3.f);
  });
}

TEST(Nonblocking, ISendClonesEagerlyAndIRecvDelivers) {
  spmd::run(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      Tensor t = Tensor::full(Shape{{6}}, 9.f, Dtype::F16);
      comm::CommHandle h = c.isend(1, 3, t);
      t.fill_(-1.f);  // must not reach the receiver: isend cloned
      h.wait();
      EXPECT_EQ(c.stats().p2p_send_count, 1);
      EXPECT_EQ(c.stats().p2p_bytes_sent, 12);
    } else {
      Tensor r = c.irecv(0, 3).result();
      for (int64_t i = 0; i < 6; ++i) ASSERT_FLOAT_EQ(r.data()[i], 9.f);
      EXPECT_EQ(c.stats().p2p_recv_count, 1);
      EXPECT_EQ(c.stats().p2p_bytes_received, 12);
    }
  });
}

// ------------------------------------------- nested checkpoint replay

// The real kFull composition, with dropout at both levels: the outer
// (full-layer style, collective-bearing) checkpoint replays the
// streamed attention core inside its nested backward, and both dropout
// masks must replay bit-exactly — out, dx and dw equal the same region
// run inline, without the checkpoint.
TEST(OverlapRecompute, NestedCheckpointDropoutReplayBitExact) {
  const int t = 2;
  const int64_t s = 8, b = 2, h = 16, heads = 4;
  spmd::run(t, [&](comm::Comm& c) {
    Rng rng(21 + static_cast<uint64_t>(c.rank()));
    const Tensor x0 = Tensor::randn(Shape{{s / t, b, h}}, rng);
    Rng wrng(33);  // same weights on every rank
    const Tensor w0 = Tensor::randn(Shape{{h, 3 * h / t}}, wrng, 0.3f);

    core::AttnCoreDims dims;
    dims.heads_local = heads / t;
    dims.heads_total = heads;
    dims.rank = c.rank();
    dims.batch = b;
    dims.s_full = s;
    dims.alpha = 0.5f;
    dims.causal = true;
    dims.dropout_p = 0.25f;
    dims.seed = 123;

    auto outer = [&](const std::vector<ag::Var>& ins) {
      ag::Var g = core::gather_from_sequence_parallel(ins[0], c);
      auto qkv = ag::chunk(ag::matmul(g, ins[1]), 3, /*dim=*/2);
      ag::Var ctx = core::streamed_attention_core(
          ag::sbh_to_bhsd(qkv[0], dims.heads_local),
          ag::sbh_to_bhsd(qkv[1], dims.heads_local),
          ag::sbh_to_bhsd(qkv[2], dims.heads_local), dims);
      ag::Var a = ag::bhsd_to_sbh(ctx, dims.heads_local);
      ag::Var d = ag::dropout(a, 0.1f, /*seed=*/321,
                              ops::IndexMap::identity(a.value().shape()));
      return core::scatter_to_sequence_parallel(d, c);
    };
    auto run_mode = [&](bool checkpointed, Tensor& dx, Tensor& dw,
                        Tensor& out) {
      ag::Var x(x0.clone(), true);
      ag::Var w = ag::Var::param(w0.clone());
      ag::Var y = checkpointed ? ag::checkpoint(outer, {x, w}) : outer({x, w});
      ag::backward(y, Tensor::full(y.value().shape(), 1.f));
      dx = x.grad().clone();
      dw = w.grad().clone();
      out = y.value().clone();
    };

    Tensor dx_i, dw_i, out_i, dx_c, dw_c, out_c;
    run_mode(false, dx_i, dw_i, out_i);
    run_mode(true, dx_c, dw_c, out_c);
    ASSERT_TRUE(bitwise_equal(out_i, out_c));
    ASSERT_TRUE(bitwise_equal(dx_i, dx_c));
    ASSERT_TRUE(bitwise_equal(dw_i, dw_c));
  });
}

}  // namespace
}  // namespace mls
