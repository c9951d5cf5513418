// GPTModel: the single-stack decoder of Fig 2 — word + positional
// embeddings with dropout, L transformer layers, a final layer-norm,
// and a tied vocabulary projection with cross-entropy loss.
//
// A GPTModel instance can own the whole network (p = 1) or one
// pipeline stage's slice of it (a contiguous layer range plus
// optionally the embedding and/or the head); pipeline schedules drive
// the embed / layer / head pieces directly.
#pragma once

#include <vector>

#include "model/transformer.h"

namespace mls::model {

struct StageSpec {
  int64_t layer_begin = 0;
  int64_t layer_end = -1;  // -1: all layers
  bool has_embedding = true;
  bool has_head = true;
};

class GPTModel {
 public:
  GPTModel(const ModelConfig& cfg, comm::Comm tp, StageSpec spec = {});

  // Dropout seeds derive from (seed, site, microbatch); drivers set the
  // microbatch index before each forward.
  void set_microbatch(int64_t mb) { env_.microbatch = mb; }

  // Whole-model convenience (requires full ownership). tokens/targets
  // are [s*b] in s-major order.
  ag::Var forward_loss(const std::vector<int64_t>& tokens,
                       const std::vector<int64_t>& targets);

  // Pipeline-stage pieces ---------------------------------------------
  ag::Var embed(const std::vector<int64_t>& tokens) const;
  // Runs the owned layer range in order.
  ag::Var transformer_forward(const ag::Var& x) const;
  // Runs one owned layer by *global* index (used by the interleaved
  // schedule, where a rank owns non-contiguous model chunks).
  ag::Var layer_forward(int64_t global_layer, const ag::Var& x) const;
  ag::Var head_loss(const ag::Var& x,
                    const std::vector<int64_t>& targets) const;

  // Inference -----------------------------------------------------------
  // Dropout layers become identities while set; used by generation.
  void set_inference(bool on) { env_.inference = on; }
  // Full-vocabulary logits for sequence position `position` of batch
  // lane 0 (tokens is a padded [s*b] buffer; causal masking makes the
  // padding after `position` irrelevant). Whole-model instances only.
  // Gathers the vocabulary-parallel shards, so the result is identical
  // on every rank.
  Tensor next_token_logits(const std::vector<int64_t>& tokens,
                           int64_t position) const;

  // Parameter access ---------------------------------------------------
  std::vector<ag::Var> params() const;
  // The params every TP rank holds in full (positional table, final
  // layernorm, each layer's layernorms and row-parallel biases); the
  // rest are sharded over the TP group.
  std::vector<ag::Var> replicated_params() const;
  void zero_grads();
  // All-reduces over the TP group the gradients of params that only saw
  // sequence-shard contributions. Call once per iteration after all
  // backward passes; no-op unless sequence parallelism is on.
  void sync_grads_after_backward();

  core::ParallelEnv& env() { return env_; }
  const core::ParallelEnv& env() const { return env_; }
  const ModelConfig& config() const { return cfg_; }
  const StageSpec& spec() const { return spec_; }
  bool owns_layer(int64_t global_layer) const {
    return global_layer >= spec_.layer_begin && global_layer < spec_.layer_end;
  }
  // The tied embedding/output table shard (for cross-stage grad sync).
  ag::Var word_table() const { return word_table_; }

  // Read-only structure access for the incremental decode path
  // (src/serve/decode.h), which re-runs the layer math tensor-by-tensor
  // against a KV cache instead of going through ag::Var graphs.
  const std::vector<TransformerLayer>& layers() const { return layers_; }
  const ag::Var& pos_table() const { return pos_table_; }
  const ag::Var& lnf_gamma() const { return lnf_gamma_; }
  const ag::Var& lnf_beta() const { return lnf_beta_; }
  int64_t vocab_offset() const { return vocab_offset_; }

 private:
  ModelConfig cfg_;
  core::ParallelEnv env_;
  StageSpec spec_;
  int64_t vocab_offset_ = 0;

  ag::Var word_table_;  // [v/t, h]; present when has_embedding or has_head
  ag::Var pos_table_;   // [s, h]
  ag::Var lnf_gamma_, lnf_beta_;
  std::vector<TransformerLayer> layers_;
};

}  // namespace mls::model
