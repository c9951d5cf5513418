// Tests for the simulated communication substrate: ring collectives
// (correctness vs direct computation, exact traffic volumes, a moved-in
// reduce-scatter operand summed in place), splits, p2p, and failure
// propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "comm/spmd.h"
#include "common/rng.h"
#include "tensor/ops.h"

namespace mls {
namespace {

// Parameterized over world size: collectives must be exact for any t.
class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, AllReduceSumsAcrossRanks) {
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    // Rank r contributes r+1 everywhere; sum = t(t+1)/2.
    Tensor x = Tensor::full(Shape{{3, 5}}, static_cast<float>(c.rank() + 1));
    c.all_reduce(x);
    const float expect = t * (t + 1) / 2.0f;
    for (int64_t i = 0; i < x.numel(); ++i) ASSERT_FLOAT_EQ(x.data()[i], expect);
  });
}

TEST_P(CollectiveTest, AllReduceRandomMatchesSerialSum) {
  const int t = GetParam();
  // Precompute each rank's tensor and the expected sum.
  std::vector<Tensor> inputs;
  Tensor expect = Tensor::zeros(Shape{{7, 3}});
  for (int r = 0; r < t; ++r) {
    Rng rng(100 + static_cast<uint64_t>(r));
    inputs.push_back(Tensor::randn(Shape{{7, 3}}, rng));
    expect.add_(inputs.back());
  }
  spmd::run(t, [&](comm::Comm& c) {
    Tensor x = inputs[static_cast<size_t>(c.rank())].clone();
    c.all_reduce(x);
    ASSERT_TRUE(x.allclose(expect, 1e-5f, 1e-6f));
  });
}

TEST_P(CollectiveTest, AllGatherDim0) {
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    Tensor shard = Tensor::full(Shape{{2, 3}}, static_cast<float>(c.rank()));
    Tensor full = c.all_gather(shard, 0);
    ASSERT_EQ(full.shape(), (Shape{{2 * t, 3}}));
    for (int r = 0; r < t; ++r)
      for (int64_t i = 0; i < 6; ++i)
        ASSERT_FLOAT_EQ(full.data()[r * 6 + i], static_cast<float>(r));
  });
}

TEST_P(CollectiveTest, AllGatherInnerDim) {
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    Tensor shard = Tensor::full(Shape{{2, 4}}, static_cast<float>(c.rank()));
    Tensor full = c.all_gather(shard, 1);
    ASSERT_EQ(full.shape(), (Shape{{2, 4 * t}}));
    for (int64_t row = 0; row < 2; ++row)
      for (int r = 0; r < t; ++r)
        for (int64_t j = 0; j < 4; ++j)
          ASSERT_FLOAT_EQ(full.data()[row * 4 * t + r * 4 + j],
                          static_cast<float>(r));
  });
}

TEST_P(CollectiveTest, ReduceScatterDim0) {
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    // Every rank contributes a [t, 3] tensor where row i has value
    // (rank+1)*(i+1); rank r's output row is sum_r (r+1)*(r_row+1).
    Tensor full = Tensor::empty(Shape{{t, 3}});
    for (int i = 0; i < t; ++i)
      for (int j = 0; j < 3; ++j)
        full.data()[i * 3 + j] = static_cast<float>((c.rank() + 1) * (i + 1));
    Tensor mine = c.reduce_scatter(full, 0);
    ASSERT_EQ(mine.shape(), (Shape{{1, 3}}));
    const float expect = static_cast<float>(t * (t + 1) / 2 * (c.rank() + 1));
    for (int j = 0; j < 3; ++j) ASSERT_FLOAT_EQ(mine.data()[j], expect);
  });
}

TEST_P(CollectiveTest, ReduceScatterThenAllGatherEqualsAllReduce) {
  // The §4.2.2 identity: an all-reduce is a reduce-scatter followed by
  // an all-gather.
  const int t = GetParam();
  std::vector<Tensor> inputs;
  for (int r = 0; r < t; ++r) {
    Rng rng(7 + static_cast<uint64_t>(r));
    inputs.push_back(Tensor::randn(Shape{{2 * t, 5}}, rng));
  }
  spmd::run(t, [&](comm::Comm& c) {
    Tensor viaAr = inputs[static_cast<size_t>(c.rank())].clone();
    c.all_reduce(viaAr);
    Tensor shard = c.reduce_scatter(inputs[static_cast<size_t>(c.rank())], 0);
    Tensor viaRsAg = c.all_gather(shard, 0);
    ASSERT_TRUE(viaAr.allclose(viaRsAg, 1e-5f, 1e-6f));
  });
}

TEST_P(CollectiveTest, RingTrafficVolumesMatchTheory) {
  // Paper §4.2.2: tensor parallelism (all-reduce) and tensor+sequence
  // parallelism (all-gather + reduce-scatter) use the same bandwidth.
  const int t = GetParam();
  if (t == 1) return;
  const int64_t full_elems = static_cast<int64_t>(t) * 6;  // divisible by t
  spmd::run(t, [&](comm::Comm& c) {
    Tensor full = Tensor::full(Shape{{full_elems}}, 1.f, Dtype::F16);
    c.stats().reset();
    Tensor x = full.clone();
    c.all_reduce(x);
    const int64_t ar_bytes = c.stats().bytes_received;
    // Ring all-reduce: 2 (t-1)/t * n bytes per rank.
    ASSERT_EQ(ar_bytes, 2 * (t - 1) * full_elems * 2 / t);

    c.stats().reset();
    Tensor shard = c.reduce_scatter(full, 0);
    const int64_t rs_bytes = c.stats().bytes_received;
    ASSERT_EQ(rs_bytes, (t - 1) * full_elems * 2 / t);

    c.stats().reset();
    Tensor gathered = c.all_gather(shard, 0);
    const int64_t ag_bytes = c.stats().bytes_received;
    ASSERT_EQ(ag_bytes, (t - 1) * full_elems * 2 / t);

    // The paper's equal-bandwidth claim, as an exact byte identity.
    ASSERT_EQ(ar_bytes, rs_bytes + ag_bytes);
  });
}

TEST_P(CollectiveTest, AllReduceUnevenSize) {
  // n not divisible by t exercises uneven ring chunks.
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{13}}, static_cast<float>(c.rank() + 1));
    c.all_reduce(x);
    const float expect = t * (t + 1) / 2.0f;
    for (int64_t i = 0; i < 13; ++i) ASSERT_FLOAT_EQ(x.data()[i], expect);
  });
}

TEST_P(CollectiveTest, Broadcast) {
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{4}}, c.rank() == 0 ? 42.f : 0.f);
    c.broadcast(x, 0);
    for (int64_t i = 0; i < 4; ++i) ASSERT_FLOAT_EQ(x.data()[i], 42.f);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(CommReduceScatter, MovedInOperandMatchesLvalueBitwise) {
  // A moved-in operand that holds its storage alone is summed in place;
  // an lvalue operand is summed in a copy. Both give the same bits, and
  // the lvalue caller's tensor comes back unchanged.
  for (int t : {2, 4}) {
    spmd::run(t, [&](comm::Comm& c) {
      Rng rng(41 + static_cast<uint64_t>(c.rank()));
      Tensor x = Tensor::randn(Shape{{3 * t, 7}}, rng);
      const Tensor before = x.clone();
      const Tensor from_lvalue = c.reduce_scatter(x, 0);
      ASSERT_EQ(0, std::memcmp(x.data(), before.data(),
                               sizeof(float) * static_cast<size_t>(x.numel())))
          << "t=" << t << ": the lvalue operand was modified";
      Tensor moved = x.clone();
      ASSERT_TRUE(moved.unique());
      const Tensor from_moved = c.reduce_scatter(std::move(moved), 0);
      ASSERT_EQ(from_moved.shape(), from_lvalue.shape());
      ASSERT_EQ(0, std::memcmp(from_moved.data(), from_lvalue.data(),
                               sizeof(float) *
                                   static_cast<size_t>(from_lvalue.numel())))
          << "t=" << t;
    });
  }
}

TEST(CommSplit, TwoByTwoGrid) {
  // 4 ranks -> 2 tensor-parallel groups (rows) x 2 pipeline groups
  // (columns), the standard Megatron grid.
  spmd::run(4, [](comm::Comm& world) {
    const int tp_color = world.rank() / 2;  // ranks {0,1}, {2,3}
    const int pp_color = world.rank() % 2;  // ranks {0,2}, {1,3}
    comm::Comm tp = world.split(tp_color);
    comm::Comm pp = world.split(1000 + pp_color);
    ASSERT_EQ(tp.size(), 2);
    ASSERT_EQ(pp.size(), 2);
    ASSERT_EQ(tp.rank(), world.rank() % 2);
    ASSERT_EQ(pp.rank(), world.rank() / 2);

    // Collectives in the subgroup touch only subgroup members.
    Tensor x = Tensor::full(Shape{{2}}, static_cast<float>(world.rank()));
    tp.all_reduce(x);
    const float expect = tp_color == 0 ? 1.f : 5.f;  // 0+1 or 2+3
    ASSERT_FLOAT_EQ(x.data()[0], expect);

    Tensor y = Tensor::full(Shape{{2}}, static_cast<float>(world.rank()));
    pp.all_reduce(y);
    const float expect_pp = pp_color == 0 ? 2.f : 4.f;  // 0+2 or 1+3
    ASSERT_FLOAT_EQ(y.data()[0], expect_pp);
  });
}

TEST(CommP2P, SendRecvPreservesDataAndOrder) {
  spmd::run(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 7, Tensor::full(Shape{{3}}, 1.f));
      c.send(1, 7, Tensor::full(Shape{{3}}, 2.f));
      Tensor back = c.recv(1, 9);
      ASSERT_FLOAT_EQ(back.data()[0], 5.f);
    } else {
      Tensor a = c.recv(0, 7);
      Tensor b = c.recv(0, 7);
      ASSERT_FLOAT_EQ(a.data()[0], 1.f);  // FIFO per channel
      ASSERT_FLOAT_EQ(b.data()[0], 2.f);
      c.send(0, 9, Tensor::full(Shape{{1}}, 5.f));
    }
  });
}

TEST(CommP2P, SendIsByValue) {
  // Mutating the tensor after send must not affect the receiver.
  spmd::run(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      Tensor t = Tensor::full(Shape{{2}}, 3.f);
      c.send(1, 0, t);
      t.fill_(-1.f);
      c.barrier();
    } else {
      c.barrier();
      Tensor r = c.recv(0, 0);
      ASSERT_FLOAT_EQ(r.data()[0], 3.f);
    }
  });
}

TEST(CommFailure, RankExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      spmd::run(3,
                [](comm::Comm& c) {
                  if (c.rank() == 1) throw Error("rank 1 exploded");
                  // Other ranks block on a collective; poison must wake them.
                  Tensor x = Tensor::full(Shape{{4}}, 1.f);
                  c.all_reduce(x);
                }),
      Error);
}

TEST(CommTraffic, P2PBytesCounted) {
  spmd::run(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      Tensor t = Tensor::zeros(Shape{{10}}, Dtype::F16);
      c.send(1, 0, t);
      ASSERT_EQ(c.stats().p2p_bytes_sent, 20);
      ASSERT_EQ(c.stats().p2p_send_count, 1);
      ASSERT_EQ(c.stats().p2p_recv_count, 0);
    } else {
      (void)c.recv(0, 0);
      ASSERT_EQ(c.stats().p2p_recv_count, 1);
      ASSERT_EQ(c.stats().p2p_bytes_received, 20);
      ASSERT_EQ(c.stats().p2p_send_count, 0);
    }
  });
}

TEST(CommTraffic, P2PSendRecvSymmetry) {
  // Every byte sent is a byte received: after a symmetric exchange, each
  // rank's send-side counters equal its recv-side counters exactly.
  spmd::run(2, [](comm::Comm& c) {
    const int peer = 1 - c.rank();
    for (int i = 0; i < 3; ++i) {
      c.send(peer, i, Tensor::zeros(Shape{{4 + i}}, Dtype::F16));
      (void)c.recv(peer, i);
    }
    ASSERT_EQ(c.stats().p2p_send_count, 3);
    ASSERT_EQ(c.stats().p2p_recv_count, c.stats().p2p_send_count);
    ASSERT_EQ(c.stats().p2p_bytes_sent, 2 * (4 + 5 + 6));
    ASSERT_EQ(c.stats().p2p_bytes_received, c.stats().p2p_bytes_sent);
  });
}

TEST(CommStress, ManyConcurrentCollectivesStayConsistent) {
  // Back-to-back mixed collectives; any barrier mismatch or stale slot
  // reuse would corrupt results. Each buffer is overwritten the moment
  // its call returns: a peer still reading it would see the poison (and
  // TSan would flag the race).
  constexpr float kPoison = -1e9f;
  auto take = [&](Tensor& t) {
    std::vector<float> v(t.data(), t.data() + t.numel());
    std::fill(t.data(), t.data() + t.numel(), kPoison);
    return v;
  };
  for (int T : {2, 3, 4}) {
    SCOPED_TRACE("T=" + std::to_string(T));
    const float rank_sum = static_cast<float>(T * (T - 1) / 2);
    spmd::run(T, [&](comm::Comm& c) {
      const int r = c.rank();
      for (int iter = 0; iter < 50; ++iter) {
        // all_reduce: x[k] = r + iter + k.
        Tensor x = Tensor::empty(Shape{{9}});
        for (int k = 0; k < 9; ++k) x.data()[k] = static_cast<float>(r + iter + k);
        c.all_reduce(x);
        const std::vector<float> sum = take(x);
        for (int k = 0; k < 9; ++k)
          ASSERT_FLOAT_EQ(sum[static_cast<size_t>(k)],
                          rank_sum + static_cast<float>(T * (iter + k)));

        // all_gather: shard[k] = 10r + k + iter.
        Tensor shard = Tensor::empty(Shape{{3}});
        for (int k = 0; k < 3; ++k)
          shard.data()[k] = static_cast<float>(10 * r + k + iter);
        Tensor g = c.all_gather(shard, 0);
        take(shard);
        const std::vector<float> gathered = take(g);
        for (int i = 0; i < T; ++i)
          for (int k = 0; k < 3; ++k)
            ASSERT_FLOAT_EQ(gathered[static_cast<size_t>(3 * i + k)],
                            static_cast<float>(10 * i + k + iter));

        // reduce_scatter: full[j] = r + j + iter; rank r keeps rows
        // [3r, 3r + 3) of the sum.
        Tensor full = Tensor::empty(Shape{{3 * T}});
        for (int j = 0; j < 3 * T; ++j)
          full.data()[j] = static_cast<float>(r + j + iter);
        Tensor mine = c.reduce_scatter(full, 0);
        take(full);
        const std::vector<float> part = take(mine);
        ASSERT_EQ(part.size(), 3u);
        for (int k = 0; k < 3; ++k)
          ASSERT_FLOAT_EQ(part[static_cast<size_t>(k)],
                          rank_sum + static_cast<float>(T * (3 * r + k + iter)));
      }
    });
  }
}

}  // namespace
}  // namespace mls
