#include "core/layers.h"

#include <cmath>

#include "core/parallel_plan.h"

namespace mls::core {

using ag::Var;

namespace {

// Every rank materializes the full weight from the shared master RNG,
// then keeps its column/row shard — guaranteeing serial/parallel
// parameter identity.
Tensor full_randn(Shape shape, Rng& master, float stddev) {
  return Tensor::randn(std::move(shape), master, stddev);
}

// Shards `full` along `dim`, treating that dimension as `blocks` equal
// blocks and taking rank r's slice of each block.
Tensor shard_blocked(const Tensor& full, int dim, int t, int r, int64_t blocks) {
  const int64_t d = full.dim(dim);
  MLS_CHECK_EQ(d % (blocks * t), 0);
  const int64_t block = d / blocks;
  const int64_t per_rank = block / t;
  std::vector<Tensor> parts;
  parts.reserve(static_cast<size_t>(blocks));
  for (int64_t b = 0; b < blocks; ++b) {
    parts.push_back(ops::slice(full, dim, b * block + r * per_rank, per_rank));
  }
  return blocks == 1 ? parts[0] : ops::cat(parts, dim);
}

}  // namespace

// -------------------------------------------------- ColumnParallelLinear

ColumnParallelLinear::ColumnParallelLinear(const ParallelEnv& env, int64_t in,
                                           int64_t out, Rng& master,
                                           float stddev, std::string name,
                                           int64_t blocks) {
  const int t = env.tp_size();
  const int r = env.tp_rank();
  Rng wrng = master.fork(std::hash<std::string>{}(name) | 1);
  Tensor w_full = full_randn(Shape{{in, out}}, wrng, stddev);
  Tensor b_full = Tensor::zeros(Shape{{out}});
  weight = Var::param(shard_blocked(w_full, 1, t, r, blocks), name + ".weight");
  bias = Var::param(shard_blocked(b_full, 0, t, r, blocks), name + ".bias");
}

Var ColumnParallelLinear::forward(const Var& x, const ParallelEnv& env) const {
  return ag::add_bias(forward_nobias(x, env), bias);
}

Var ColumnParallelLinear::forward_nobias(const Var& x,
                                         const ParallelEnv& env) const {
  return env.plan().column_matmul(x, weight, /*trans_b=*/false, env);
}

// ----------------------------------------------------- RowParallelLinear

RowParallelLinear::RowParallelLinear(const ParallelEnv& env, int64_t in,
                                     int64_t out, Rng& master, float stddev,
                                     std::string name) {
  const int t = env.tp_size();
  const int r = env.tp_rank();
  Rng wrng = master.fork(std::hash<std::string>{}(name) | 1);
  Tensor w_full = full_randn(Shape{{in, out}}, wrng, stddev);
  weight = Var::param(shard_blocked(w_full, 0, t, r, 1), name + ".weight");
  bias = Var::param(Tensor::zeros(Shape{{out}}), name + ".bias");
}

Var RowParallelLinear::forward(const Var& x, const ParallelEnv& env) const {
  return finish(ag::matmul(x, weight), env);
}

Var RowParallelLinear::finish(const Var& y_partial,
                              const ParallelEnv& env) const {
  Var y = env.plan().row_exit(y_partial, env);  // f̄ or ḡ
  return ag::add_bias(y, bias);
}

// -------------------------------------------------- ParallelSelfAttention

ParallelSelfAttention::ParallelSelfAttention(const ParallelEnv& env, int64_t h,
                                             int64_t a, float attn_dropout_p,
                                             bool causal, uint64_t site_base,
                                             Rng& master, std::string name)
    : qkv(env, h, 3 * h, master, 0.02f, name + ".qkv", /*blocks=*/3),
      proj(env, h, h, master, 0.02f, name + ".proj"),
      h_(h),
      a_(a),
      dropout_p_(attn_dropout_p),
      causal_(causal),
      site_base_(site_base) {
  MLS_CHECK_EQ(a % env.tp_size(), 0) << "heads must divide tp size";
  MLS_CHECK_EQ(h % a, 0);
}

Var ParallelSelfAttention::forward(const Var& x, const ParallelEnv& env) const {
  const int t = env.tp_size();
  const int r = env.tp_rank();
  const int64_t heads_local = a_ / t;
  const int64_t d = h_ / a_;

  Var qkv_out = qkv.forward(x, env);  // [s, b, 3h/t]
  auto parts = ag::chunk(qkv_out, 3, /*dim=*/2);
  Var q = ag::sbh_to_bhsd(parts[0], heads_local);  // [b*a/t, s, d]
  Var k = ag::sbh_to_bhsd(parts[1], heads_local);
  Var v = ag::sbh_to_bhsd(parts[2], heads_local);

  // The attention core (Fig 3's red dashed region): QKᵀ, softmax,
  // softmax-dropout, attention over V. Without recomputation the plan's
  // attention_core saves its s² state (which ops fuse, and therefore
  // what is saved, is the plan's decision). Every recompute rung — the
  // selective one, and the layer replay of full recomputation — runs
  // the streamed core instead: Q/K/V are its only saved inputs, and
  // backward rebuilds one (batch, head) slice at a time.
  AttnCoreDims dims;
  dims.heads_local = heads_local;
  dims.heads_total = a_;
  dims.rank = r;
  dims.batch = q.value().dim(0) / heads_local;
  dims.s_full = q.value().dim(1);
  dims.alpha = 1.0f / std::sqrt(static_cast<float>(d));
  dims.causal = causal_;
  dims.dropout_p = env.effective_dropout(dropout_p_);
  dims.seed = env.dropout_seed(site_base_ + 0);
  Var ctx = (env.recompute == Recompute::kNone)
                ? env.plan().attention_core(q, k, v, dims)
                : streamed_attention_core(q, k, v, dims);

  Var ctx_sbh = ag::bhsd_to_sbh(ctx, heads_local);  // [s, b, h/t]
  return proj.forward(ctx_sbh, env);
}

std::vector<Var> ParallelSelfAttention::params() const {
  return {qkv.weight, qkv.bias, proj.weight, proj.bias};
}

// ---------------------------------------------------------- ParallelMLP

ParallelMLP::ParallelMLP(const ParallelEnv& env, int64_t h, Rng& master,
                         std::string name)
    : lin1(env, h, 4 * h, master, 0.02f, name + ".lin1"),
      lin2(env, 4 * h, h, master, 0.02f, name + ".lin2") {}

Var ParallelMLP::forward(const Var& x, const ParallelEnv& env) const {
  // bias+GeLU and the second GEMM route through the plan (folded TSP
  // fuses them into one node and stores only the pre-bias input).
  Var z1 = lin1.forward_nobias(x, env);
  Var y_partial = env.plan().mlp_act_fc2(z1, lin1.bias, lin2.weight);
  return lin2.finish(y_partial, env);
}

std::vector<Var> ParallelMLP::params() const {
  return {lin1.weight, lin1.bias, lin2.weight, lin2.bias};
}

}  // namespace mls::core
