#include "model/gpt.h"

#include "analysis/ledger.h"
#include "core/collectives.h"
#include "core/parallel_plan.h"

namespace mls::model {

using ag::Var;

namespace {
// Dropout site ids outside the per-layer blocks.
constexpr uint64_t kEmbedDropoutSite = 1u << 20;
}  // namespace

GPTModel::GPTModel(const ModelConfig& cfg, comm::Comm tp, StageSpec spec)
    : cfg_(cfg), spec_(spec) {
  cfg_.validate();
  if (spec_.layer_end < 0) spec_.layer_end = cfg_.L;
  MLS_CHECK(spec_.layer_begin >= 0 && spec_.layer_end <= cfg_.L &&
            spec_.layer_begin <= spec_.layer_end)
      << "bad stage layer range";

  env_ = make_env(cfg_, std::move(tp));
  MLS_CHECK_EQ(env_.tp_size(), cfg_.t) << "tp comm size must match config";

  Rng master(cfg_.seed);
  const int t = env_.tp_size();
  const int r = env_.tp_rank();
  vocab_offset_ = r * (cfg_.v / t);

  if (spec_.has_embedding || spec_.has_head) {
    Rng wrng = master.fork(std::hash<std::string>{}("wte") | 1);
    word_table_ = Var::param(
        core::randn_shard(Shape{{cfg_.v, cfg_.h}}, 0, 1, t, r, wrng, 0.02f),
        "wte");
  }
  if (spec_.has_embedding) {
    Rng prng = master.fork(std::hash<std::string>{}("wpe") | 1);
    pos_table_ = Var::param(Tensor::randn(Shape{{cfg_.s, cfg_.h}}, prng, 0.02f),
                            "wpe");
  }
  if (spec_.has_head) {
    lnf_gamma_ = Var::param(Tensor::full(Shape{{cfg_.h}}, 1.f), "lnf.gamma");
    lnf_beta_ = Var::param(Tensor::zeros(Shape{{cfg_.h}}), "lnf.beta");
  }

  layers_.reserve(static_cast<size_t>(spec_.layer_end - spec_.layer_begin));
  for (int64_t l = spec_.layer_begin; l < spec_.layer_end; ++l) {
    // Weight streams are keyed by layer name, so a stage constructs
    // exactly the same weights the serial model would for layer l.
    layers_.emplace_back(env_, cfg_, l, master);
  }
}

Var GPTModel::embed(const std::vector<int64_t>& tokens) const {
  MLS_CHECK(spec_.has_embedding) << "this stage has no embedding";
  const int t = env_.tp_size();
  const int r = env_.tp_rank();
  const bool seq_sharded = env_.plan().sequence_sharded();
  Var x = core::vocab_parallel_embedding(word_table_, tokens, cfg_.s, cfg_.b,
                                         vocab_offset_, env_.tp, seq_sharded);
  Var pos = seq_sharded
                ? ag::slice(pos_table_, 0, r * (cfg_.s / t), cfg_.s / t)
                : pos_table_;
  x = core::add_positional(x, pos);

  const Shape global{{cfg_.s, cfg_.b, cfg_.h}};
  const ops::IndexMap map =
      seq_sharded
          ? ops::IndexMap::shard(global, 0, r * (cfg_.s / t), cfg_.s / t)
          : ops::IndexMap::identity(global);
  // §4.3: "The dropout in the embeddings layer is also parallelized
  // along the sequence dimension."
  return ag::dropout(x, env_.effective_dropout(cfg_.dropout_p),
                     env_.dropout_seed(kEmbedDropoutSite), map);
}

Var GPTModel::transformer_forward(const Var& x) const {
  Var cur = x;
  for (const auto& layer : layers_) cur = layer.forward(cur, env_);
  return cur;
}

Var GPTModel::layer_forward(int64_t global_layer, const Var& x) const {
  MLS_CHECK(owns_layer(global_layer))
      << "layer " << global_layer << " not owned by this stage";
  return layers_[static_cast<size_t>(global_layer - spec_.layer_begin)].forward(
      x, env_);
}

Var GPTModel::head_loss(const Var& x, const std::vector<int64_t>& targets) const {
  MLS_CHECK(spec_.has_head) << "this stage has no head";
  Var xl = ag::layernorm(x, lnf_gamma_, lnf_beta_, cfg_.ln_eps);
  // §4.3: under sequence-sharded plans the output projection stores its
  // sequence-sharded input (2sbh/t) and re-gathers in backward.
  Var logits =
      env_.plan().column_matmul(xl, word_table_, /*trans_b=*/true, env_);
  const int64_t vl = cfg_.v / env_.tp_size();
  Var flat = ag::reshape(logits, Shape{{cfg_.s * cfg_.b, vl}});
  return core::vocab_parallel_cross_entropy(flat, targets, vocab_offset_, env_.tp);
}

Tensor GPTModel::next_token_logits(const std::vector<int64_t>& tokens,
                                   int64_t position) const {
  MLS_CHECK(spec_.has_embedding && spec_.has_head) << "whole-model only";
  MLS_CHECK(position >= 0 && position < cfg_.s);
  ag::NoGradGuard no_grad;
  Var h = transformer_forward(embed(tokens));
  Var xl = ag::layernorm(h, lnf_gamma_, lnf_beta_, cfg_.ln_eps);
  // Sequence-sharded plans re-gather the full sequence inside the fused
  // column matmul; under no-grad the TP entry (f) is an identity.
  Var logits = env_.plan().column_matmul(xl, word_table_, /*trans_b=*/true,
                                         env_);
  // [s, b, v/t] -> this position, batch lane 0 -> gather full vocab.
  Tensor row = ops::slice(ops::slice(logits.value(), 0, position, 1), 1, 0, 1);
  const int64_t vl = cfg_.v / env_.tp_size();
  Tensor local = row.reshape(Shape{{vl}});
  comm::Comm tp = env_.tp;  // cheap handle copy; collectives mutate stats
  analysis::SiteGuard sg("gpt.gather_logits");
  return tp.valid() && tp.size() > 1 ? tp.all_gather(local, 0) : local;
}

Var GPTModel::forward_loss(const std::vector<int64_t>& tokens,
                           const std::vector<int64_t>& targets) {
  MLS_CHECK(spec_.has_embedding && spec_.has_head &&
            spec_.layer_begin == 0 && spec_.layer_end == cfg_.L)
      << "forward_loss requires a whole-model instance";
  return head_loss(transformer_forward(embed(tokens)), targets);
}

std::vector<Var> GPTModel::params() const {
  std::vector<Var> out;
  if (word_table_.defined()) out.push_back(word_table_);
  if (pos_table_.defined()) out.push_back(pos_table_);
  if (lnf_gamma_.defined()) {
    out.push_back(lnf_gamma_);
    out.push_back(lnf_beta_);
  }
  for (const auto& layer : layers_) {
    for (auto& p : layer.params()) out.push_back(p);
  }
  return out;
}

void GPTModel::zero_grads() {
  for (auto& p : params()) p.zero_grad();
}

std::vector<Var> GPTModel::replicated_params() const {
  std::vector<Var> out;
  if (pos_table_.defined()) out.push_back(pos_table_);
  if (lnf_gamma_.defined()) {
    out.push_back(lnf_gamma_);
    out.push_back(lnf_beta_);
  }
  for (const auto& layer : layers_) {
    for (auto& p : layer.replicated_params()) out.push_back(p);
  }
  return out;
}

void GPTModel::sync_grads_after_backward() {
  if (!env_.plan().sequence_sharded() || env_.tp_size() == 1) return;
  env_.plan().sync_replicated_grads(replicated_params(), env_.tp);
}

}  // namespace mls::model
