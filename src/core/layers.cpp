#include "core/layers.h"

#include <cmath>

#include "core/parallel_plan.h"

namespace mls::core {

using ag::Var;

Tensor randn_shard(const Shape& full, int dim, int64_t blocks, int t, int r,
                   Rng& rng, float stddev) {
  MLS_CHECK(full.ndim() == 2 && (dim == 0 || dim == 1));
  MLS_CHECK_EQ(full[dim] % (blocks * t), 0);
  const int64_t per_rank = full[dim] / blocks / t;
  // The matrix as [outer, blocks, t, per_rank, inner]: each (outer,
  // block) holds t consecutive runs of per_rank * inner values, and
  // rank r owns run r.
  const int64_t outer = dim == 0 ? 1 : full[0];
  const int64_t inner = dim == 0 ? full[1] : 1;
  const int64_t run = per_rank * inner;
  Tensor out = Tensor::empty(full.with_dim(dim, blocks * per_rank));
  float* dst = out.data();
  int64_t skip = 0;  // values between the last owned run and the next
  for (int64_t i = 0; i < outer * blocks; ++i) {
    rng.skip_normals(skip + r * run);
    rng.fill_normal(dst, run, 0.f, stddev);
    dst += run;
    skip = (t - 1 - r) * run;
  }
  return out;
}

// -------------------------------------------------- ColumnParallelLinear

ColumnParallelLinear::ColumnParallelLinear(const ParallelEnv& env, int64_t in,
                                           int64_t out, Rng& master,
                                           float stddev, std::string name,
                                           int64_t blocks) {
  const int t = env.tp_size();
  const int r = env.tp_rank();
  Rng wrng = master.fork(std::hash<std::string>{}(name) | 1);
  weight = Var::param(randn_shard(Shape{{in, out}}, 1, blocks, t, r, wrng, stddev),
                      name + ".weight");
  bias = Var::param(Tensor::zeros(Shape{{out / t}}), name + ".bias");
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
  weight = Var::param(randn_shard(Shape{{in, out}}, 0, 1, t, r, wrng, stddev),
                      name + ".weight");
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
  // The attention core (Fig 3's red dashed region): QKᵀ, softmax,
  // softmax-dropout, attention over V, read from the [s, b, 3h/t] QKV
  // output where it lies and written as the [s, b, h/t] context. Which
  // s² tensors it keeps for backward is the rung's and the plan's
  // decision: without recomputation the plan's set (its Table-2
  // attention term); every recompute rung — the selective one, and the
  // layer replay of full recomputation — keeps the QKV output only and
  // rebuilds one (batch, head) slice at a time in backward.
  AttnCoreDims dims;
  dims.heads_local = a_ / env.tp_size();
  dims.heads_total = a_;
  dims.rank = env.tp_rank();
  dims.alpha = 1.0f / std::sqrt(static_cast<float>(h_ / a_));
  dims.causal = causal_;
  dims.dropout_p = env.effective_dropout(dropout_p_);
  dims.seed = env.dropout_seed(site_base_ + 0);
  const AttnSaved saved = env.recompute == Recompute::kNone
                              ? env.plan().attention_saved()
                              : AttnSaved::kInputs;
  Var ctx = attention_core(qkv.forward(x, env), dims, saved);
  return proj.forward(ctx, env);
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
