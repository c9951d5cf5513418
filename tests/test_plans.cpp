// ParallelPlan regression tests: the strategy objects that own a
// layer's collective wiring (core/parallel_plan.h).
//
// Two properties are load-bearing:
//   1. A plan kind names exactly one plan singleton, and a default
//      ModelConfig / ParallelEnv run the TP plan. (TP and TP+SP match
//      the serial reference in test_core.cpp's LayerEquivalence and
//      ModelEquivalence suites.)
//   2. The folded-TSP plan (arXiv 2604.26294: pointwise-recomputable
//      activations folded into their consumer GEMMs on the TP+SP
//      wiring) is an exact optimization — bitwise-equal training to
//      TP+SP with identical collective traffic, only the activation
//      ledger differs (asserted byte-exactly in test_memory.cpp).
//   3. The one attention-core node, reading Q/K/V where the QKV GEMM
//      wrote them, is bitwise the materialized unfused chain on permuted
//      Q/K/V for each saved set (QKV only, P + mask + P·dropout,
//      scores + mask): values and the d(QKV) gradient, at every slice
//      count, shape, mask and kernel thread count. Its transient bytes
//      do not grow with the slice count, a self-attention backward holds
//      one QKV-sized gradient, under no-grad it keeps nothing and draws
//      no mask, and nested in a full-layer checkpoint its dropout
//      replay is bit-exact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/engine.h"
#include "autograd/functions.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "core/collectives.h"
#include "core/env.h"
#include "core/parallel_plan.h"
#include "memory/pool_allocator.h"
#include "train/trainer.h"

namespace mls {
namespace {

using core::PlanKind;
using model::ModelConfig;

// ------------------------------------------------------ plan registry

TEST(PlanRegistry, NamesRoundTripThroughParser) {
  for (PlanKind k : {PlanKind::kTensorParallel, PlanKind::kTensorSequence,
                     PlanKind::kFoldedTsp}) {
    EXPECT_EQ(core::plan_kind_from_string(core::plan_kind_name(k)), k);
    EXPECT_EQ(core::plan_for(k).kind(), k);
  }
  // MLS_PLAN accepts the short spellings too.
  EXPECT_EQ(core::plan_kind_from_string("sp"), PlanKind::kTensorSequence);
  EXPECT_EQ(core::plan_kind_from_string("folded"), PlanKind::kFoldedTsp);
  EXPECT_THROW(core::plan_kind_from_string("auto"), Error);
  EXPECT_THROW(core::plan_kind_from_string("ring_attention"), Error);
  EXPECT_FALSE(core::tp_plan().sequence_sharded());
  EXPECT_TRUE(core::sp_plan().sequence_sharded());
  // Folded TSP rides the SP wiring: same sharding, same comm schedule.
  EXPECT_TRUE(core::folded_tsp_plan().sequence_sharded());
  // Nothing chosen means the TP plan.
  EXPECT_EQ(&ModelConfig{}.plan(), &core::tp_plan());
  EXPECT_EQ(&core::ParallelEnv{}.plan(), &core::tp_plan());
}

TEST(PlanRegistry, SetPlanKeepsConfigConsistent) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.set_plan(PlanKind::kFoldedTsp);
  EXPECT_EQ(&cfg.plan(), &core::folded_tsp_plan());
  EXPECT_NO_THROW(cfg.validate());
  // A sequence-sharded plan needs s divisible by t.
  cfg.s = 15;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.set_plan(PlanKind::kTensorParallel);
  EXPECT_EQ(&cfg.plan(), &core::tp_plan());
  EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------- bit-identity regression

struct TrainRun {
  std::vector<float> losses;
  std::vector<float> final_params;  // rank 0's shard, flattened
  int64_t tp_bytes_received = 0;    // rank 0
  int64_t tp_all_reduces = 0;
  int64_t tp_all_gathers = 0;
  int64_t tp_reduce_scatters = 0;
};

// A short t=2 training run (4 layers, selective recompute exercised by
// the SP arms) that records everything the plan could possibly touch.
TrainRun train(ModelConfig cfg, core::Recompute rc = core::Recompute::kNone) {
  cfg.a = 4;
  cfg.h = 32;
  cfg.s = 16;
  cfg.v = 64;
  cfg.b = 2;
  cfg.global_batch = 2 * cfg.b;
  cfg.recompute = rc;
  cfg.validate();

  data::MarkovDataset ds(cfg.v, 1.0, 7);
  std::vector<std::vector<data::Batch>> steps_data;
  for (int i = 0; i < 6; ++i) {
    steps_data.push_back(data::make_microbatches(ds, cfg));
  }

  TrainRun out;
  spmd::run(cfg.t, [&](comm::Comm& world) {
    MemoryTracker::instance().reset();
    train::TrainerOptions opts;
    opts.lr = 0.02f;
    opts.use_adam = false;
    train::Trainer trainer(cfg, world, opts);
    std::vector<float> losses;
    for (const auto& batch : steps_data) {
      losses.push_back(trainer.step(batch).loss);
    }
    if (world.rank() == 0) {
      out.losses = losses;
      for (const ag::Var& p : trainer.engine().params()) {
        const Tensor& v = p.value();
        out.final_params.insert(out.final_params.end(), v.data(),
                                v.data() + v.numel());
      }
      const auto& st = trainer.engine().tp_comm().stats();
      out.tp_bytes_received = st.bytes_received;
      out.tp_all_reduces = st.all_reduce_count;
      out.tp_all_gathers = st.all_gather_count;
      out.tp_reduce_scatters = st.reduce_scatter_count;
    }
  });
  return out;
}

void expect_bitwise_equal(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]) << "loss diverged at step " << i;
  }
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i])
        << "parameter diverged at flat index " << i;
  }
  EXPECT_EQ(a.tp_bytes_received, b.tp_bytes_received);
  EXPECT_EQ(a.tp_all_reduces, b.tp_all_reduces);
  EXPECT_EQ(a.tp_all_gathers, b.tp_all_gathers);
  EXPECT_EQ(a.tp_reduce_scatters, b.tp_reduce_scatters);
}

TEST(PlanBitIdentity, FoldedTspMatchesTpSpExactly) {
  // The fused nodes recompute GeLU / softmax-dropout pointwise in
  // backward instead of saving them; every float and every collective
  // must be unchanged vs the TP+SP plan.
  ModelConfig sp_cfg = ModelConfig::tiny(2, 4);
  sp_cfg.set_plan(PlanKind::kTensorSequence);
  ModelConfig folded_cfg = sp_cfg;
  folded_cfg.set_plan(PlanKind::kFoldedTsp);
  expect_bitwise_equal(train(sp_cfg), train(folded_cfg));
  // And again under selective recompute (both plans stream the
  // attention core there; the fused MLP node still differs).
  expect_bitwise_equal(train(sp_cfg, core::Recompute::kSelective),
                       train(folded_cfg, core::Recompute::kSelective));
}

// ---------------------------------------------------- the attention core

// RAII Env override so a failing EXPECT cannot leak the setting into
// later tests.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    core::Env::set(name_, value);
  }
  ~ScopedEnv() { core::Env::clear(name_); }

 private:
  std::string name_;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// ctx [s, b, h/t] and d(QKV) [s, b, 3h/t] of one attention-core path.
struct CoreResult {
  Tensor ctx, dqkv;
};

// Q, K or V (part 0, 1 or 2) of an [s, b, 3·heads·hd] QKV tensor as the
// [b·heads, s, hd] slices the unfused chain reads, by generic permute.
Tensor qkv_part(const Tensor& qkv, int64_t part, int64_t heads) {
  const int64_t s = qkv.dim(0), b = qkv.dim(1);
  const int64_t hd = qkv.dim(2) / (3 * heads);
  const Tensor parts =
      ops::permute(qkv.reshape(Shape{{s, b, 3, heads, hd}}), {2, 1, 3, 0, 4});
  return ops::slice(parts, 0, part, 1).reshape(Shape{{b * heads, s, hd}});
}

// [b·heads, s, hd] slices back to [s, b, heads·hd].
Tensor to_sbh(const Tensor& x, int64_t b) {
  const int64_t heads = x.dim(0) / b, s = x.dim(1), hd = x.dim(2);
  return ops::permute(x.reshape(Shape{{b, heads, s, hd}}), {2, 0, 1, 3})
      .reshape(Shape{{s, b, heads * hd}});
}

// The materialized unfused chain over [b·a/t, s, d] q, k, v, with its
// mask coordinates written out here rather than taken from AttnCoreDims.
ag::Var unfused_core(const ag::Var& q, const ag::Var& k, const ag::Var& v,
                     const core::AttnCoreDims& d) {
  const int64_t s = q.value().dim(1);
  const int64_t ss = s * s;
  ops::IndexMap map;
  map.dims = {q.value().dim(0) / d.heads_local, d.heads_local, s, s};
  map.strides = {d.heads_total * ss, ss, s, 1};
  map.base = d.rank * d.heads_local * ss;
  ag::Var probs =
      ag::scaled_softmax(ag::bmm(q, k, /*trans_b=*/true), d.alpha, d.causal);
  return ag::bmm(ag::dropout(probs, d.dropout_p, d.seed, map), v);
}

// The unfused chain (no saved set) on Q/K/V permuted out of qkv0, with
// ctx and d(QKV) permuted back, or the node with one set on qkv0 itself.
CoreResult run_core(std::optional<core::AttnSaved> saved, const Tensor& qkv0,
                    const Tensor& grad, const core::AttnCoreDims& d) {
  const int64_t b = qkv0.dim(1);
  if (saved) {
    ag::Var qkv(qkv0.clone(), true);
    const ag::Var ctx = core::attention_core(qkv, d, *saved);
    CoreResult r{ctx.value().clone(), {}};
    ag::backward(ctx, grad.clone());
    r.dqkv = qkv.grad().clone();
    return r;
  }
  std::vector<ag::Var> qkv;
  for (int64_t part = 0; part < 3; ++part)
    qkv.emplace_back(qkv_part(qkv0, part, d.heads_local), true);
  const ag::Var ctx = unfused_core(qkv[0], qkv[1], qkv[2], d);
  const Tensor g = grad.reshape(Shape{{grad.dim(0), b, d.heads_local,
                                       grad.dim(2) / d.heads_local}});
  ag::backward(ctx, ops::permute(g, {1, 2, 0, 3}).reshape(ctx.value().shape()));
  std::vector<Tensor> grads;
  for (const ag::Var& x : qkv) grads.push_back(to_sbh(x.grad(), b));
  return {to_sbh(ctx.value(), b), ops::cat(grads, 2)};
}

// Rank 1 of t = 2 with `heads_local` heads per rank.
core::AttnCoreDims core_dims(int64_t heads_local, int64_t hd, bool causal,
                             float p) {
  core::AttnCoreDims d;
  d.heads_local = heads_local;
  d.heads_total = 2 * heads_local;
  d.rank = 1;
  d.alpha = 1.0f / std::sqrt(static_cast<float>(hd));
  d.causal = causal;
  d.dropout_p = p;
  d.seed = 77;
  return d;
}

// The [s, b, 3·heads·hd] QKV output and an [s, b, heads·hd] context
// gradient, random.
std::pair<Tensor, Tensor> core_inputs(int64_t s, int64_t b, int64_t heads,
                                      int64_t hd, uint64_t seed) {
  Rng rng(seed);
  Tensor qkv = Tensor::randn(Shape{{s, b, 3 * heads * hd}}, rng);
  Tensor g = Tensor::randn(Shape{{s, b, heads * hd}}, rng);
  return {qkv, g};
}

constexpr core::AttnSaved kSavedSets[] = {
    core::AttnSaved::kInputs, core::AttnSaved::kProbs, core::AttnSaved::kScores};

// Each saved set of the node, reading the QKV output in place, against
// the materialized unfused chain on Q/K/V permuted out of it: every
// slice count (batch > 1 and rank > 0, so a wrong slice base draws a
// wrong mask; b = 3 so the row stride b·3h/t is neither 3h/t nor a
// power of two), odd and tile-straddling s, causal or not, dropout on
// or off, at 1, 2 and 4 kernel threads against the single-thread
// unfused reference (so each set is also thread-count invariant).
// s = 128 with d = 32 is the first shape whose per-slice GEMMs split
// across threads. s = 300 (one slice) crosses the GEMM's KC = 256 panel
// boundary, where a causal dV/dK tile whose first live k lies past 256
// writes its first panel instead of adding it.
TEST(StreamedAttentionCore, BitwiseEqualToMaterializedCore) {
  struct Slices {
    int64_t batch, heads_local;
  };
  const Slices slice_grid[] = {{1, 1}, {3, 1}, {2, 4}};  // nb = 1, 3, 8
  for (const Slices sl : slice_grid) {
    for (const int64_t s : {1, 7, 33, 64, 128, 300}) {
      if (s == 300 && sl.batch * sl.heads_local > 1) continue;
      for (const int64_t hd : {4, 32}) {
        for (const bool causal : {false, true}) {
          for (const float p : {0.0f, 0.1f}) {
            const core::AttnCoreDims d =
                core_dims(sl.heads_local, hd, causal, p);
            const auto [qkv, g] =
                core_inputs(s, sl.batch, sl.heads_local, hd,
                            static_cast<uint64_t>(1000 * s + hd));
            CoreResult ref;
            {
              ScopedEnv one("MLS_KERNEL_THREADS", "1");
              ref = run_core(std::nullopt, qkv, g, d);
            }
            for (const char* nt : {"1", "2", "4"}) {
              ScopedEnv threads("MLS_KERNEL_THREADS", nt);
              for (int path = 0; path <= 3; ++path) {
                std::optional<core::AttnSaved> saved;
                if (path > 0) saved = kSavedSets[path - 1];
                const CoreResult r = run_core(saved, qkv, g, d);
                const std::string where =
                    "b=" + std::to_string(sl.batch) +
                    " heads=" + std::to_string(sl.heads_local) +
                    " s=" + std::to_string(s) + " d=" + std::to_string(hd) +
                    " causal=" + std::to_string(causal) +
                    " p=" + std::to_string(p) + " threads=" + nt +
                    " path=" + std::to_string(path);
                EXPECT_TRUE(bitwise_equal(r.ctx, ref.ctx)) << "ctx " << where;
                EXPECT_TRUE(bitwise_equal(r.dqkv, ref.dqkv))
                    << "dqkv " << where;
              }
            }
          }
        }
      }
    }
  }
}

// The kNone saved sets are written slice by slice into whole saved
// tensors, so over forward + backward the pool holds, beyond the saved
// s² tensors, the output and the d(QKV) gradient, only a few s×s slice
// buffers — at one slice and at eight alike. A core that materializes a
// whole [nb, s, s] transient (scores before the softmax, d(P·dropout),
// dP or dS over every slice at once) exceeds the bound at nb = 8.
TEST(StreamedAttentionCore, KNoneTransientsDoNotGrowWithSliceCount) {
  // d much smaller than s, so the [s, b, h/t]-sized buffers the bound
  // accounts for (d(QKV) is three of them) leave little slack.
  const int64_t s = 64, hd = 4;
  const int64_t slice = s * s * static_cast<int64_t>(sizeof(float));
  auto& mt = MemoryTracker::instance();
  for (const core::AttnSaved saved :
       {core::AttnSaved::kProbs, core::AttnSaved::kScores}) {
    // Physical bytes per s² element the set keeps: fp32 P and P·dropout
    // plus the 1-byte mask, or fp32 scores plus the mask.
    const int64_t kept = saved == core::AttnSaved::kProbs ? 9 : 5;
    for (const int64_t heads : {1, 8}) {
      const core::AttnCoreDims d = core_dims(heads, hd, true, 0.1f);
      auto [qkv0, g] = core_inputs(s, 1, heads, hd, 5);
      ag::Var qkv(qkv0, true);
      const int64_t ctx_sized = g.numel() * static_cast<int64_t>(sizeof(float));
      const int64_t live0 = mt.pooled_in_use_bytes();
      mt.reset_physical_peak();
      {
        const ag::Var ctx = core::attention_core(qkv, d, saved);
        ag::backward(ctx, std::move(g));  // the root gradient, not a copy
      }
      const int64_t peak = mt.pooled_in_use_peak_bytes() - live0;
      const int64_t accounted = heads * s * s * kept + 4 * ctx_sized;
      EXPECT_LE(peak - accounted, 4 * slice)
          << "saved set " << static_cast<int>(saved) << " nb=" << heads;
    }
  }
}

// Pool allocate() calls made by fn on this thread.
template <typename F>
int64_t pool_allocs(F&& fn) {
  auto& pool = *memory::PoolAllocator::this_thread();
  const int64_t before = pool.stats().allocs;
  fn();
  return pool.stats().allocs - before;
}

// A node is built only in grad mode, and only a node keeps anything:
// under NoGradGuard every saved set makes the same allocations as the
// inputs set — the output and two slice buffers, no mask — and returns
// the grad-mode output bit for bit. With grad, the scores set replaces
// the scores slice buffer by the whole saved scores, so it allocates
// exactly one more buffer than without: the mask.
TEST(StreamedAttentionCore, NoGradForwardKeepsNothingAndDrawsNoMask) {
  const core::AttnCoreDims d = core_dims(2, 8, true, 0.1f);
  ag::Var qkv(core_inputs(33, 2, 2, 8, 95).first, true);
  for (const core::AttnSaved saved : kSavedSets) {
    ag::Var y_grad, y_nograd;
    const int64_t grad =
        pool_allocs([&] { y_grad = core::attention_core(qkv, d, saved); });
    int64_t nograd = 0;
    {
      ag::NoGradGuard no_grad;
      nograd = pool_allocs(
          [&] { y_nograd = core::attention_core(qkv, d, saved); });
    }
    const int set = static_cast<int>(saved);
    EXPECT_EQ(nograd, 3) << "set " << set;  // out + two slice buffers
    if (saved == core::AttnSaved::kScores) {
      EXPECT_EQ(grad - nograd, 1);  // the mask
    }
    EXPECT_FALSE(y_nograd.requires_grad()) << "set " << set;
    EXPECT_TRUE(y_grad.requires_grad()) << "set " << set;
    EXPECT_TRUE(bitwise_equal(y_nograd.value(), y_grad.value()))
        << "set " << set;
  }
}

// The core writes dQ, dK and dV straight into one d(QKV) buffer, so a
// self-attention block's backward allocates no other [s, b, 3h/t]-sized
// gradient (no per-piece slice gradients of the whole QKV output for the
// engine to sum) and no Q/K/V or context gradient in another layout: its
// pool allocations are exactly what its GEMMs and the core need.
TEST(StreamedAttentionCore, SelfAttentionBackwardAllocatesOneQkvGradient) {
  spmd::run(1, [&](comm::Comm& c) {
    const ModelConfig cfg = ModelConfig::tiny(1, 1);
    const core::ParallelEnv env = model::make_env(cfg, c);
    Rng master(3);
    core::ParallelSelfAttention attn(env, cfg.h, cfg.a, 0.1f,
                                     /*causal=*/true, 0, master, "attn");
    Rng drng(4);
    ag::Var x(Tensor::randn(Shape{{cfg.s, cfg.b, cfg.h}}, drng), true);
    ag::Var y = attn.forward(x, env);
    Tensor dy = Tensor::full(y.value().shape(), 1.f);
    const int64_t allocs =
        pool_allocs([&] { ag::backward(y, std::move(dy)); });
    // proj: bias grad, dctx, dW; the core: d(QKV) and two s×s slices of
    // workspace (the tp plan keeps P, its dropout and the mask); qkv:
    // bias grad, dx, dW; and x's accumulated gradient.
    EXPECT_EQ(allocs, 3 + 3 + 3 + 1);
  });
}

// ------------------------------------------- nested checkpoint replay

// The real kFull composition, with dropout at both levels: the outer
// (full-layer style, collective-bearing) checkpoint replays the
// attention core (its inputs set) inside its nested backward, and both dropout
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
    dims.alpha = 0.5f;
    dims.causal = true;
    dims.dropout_p = 0.25f;
    dims.seed = 123;

    auto outer = [&](const std::vector<ag::Var>& ins) {
      ag::Var g = core::gather_from_sequence_parallel(ins[0], c);
      ag::Var a = core::attention_core(ag::matmul(g, ins[1]), dims,
                                       core::AttnSaved::kInputs);
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
