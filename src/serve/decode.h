// DecodeEngine: batched single-position transformer forward against a
// KV cache — the serving counterpart of model::GPTModel's full-window
// forward.
//
// Bit-identity contract. For every sequence, the tokens this path
// samples are bitwise identical to model::generate() on the same model,
// because each row reproduces the full path's float operations exactly:
//   * Row ops (layernorm, the h- and 4h-contraction GEMMs, biases,
//     GeLU) are per-row and the kernel substrate's k-reduction order is
//     independent of m/n tile position (tensor/kernels.h), so a row of
//     a [n, ...] decode batch matches the same row inside a [s*b, ...]
//     full forward bit-for-bit, whatever n is. Decode's weight GEMMs
//     (n <= 32 rows) take the kernel's short-M path, which reads the
//     weight in place instead of packing it, while the full forward's
//     tall GEMMs pack it; both feed each output element the same FMA
//     chain in the same k order, so the rows still match
//     (KernelGemm.ShortMRowsMatchTallGemmBitwise pins this).
//   * Attention runs kernels::decode_attention on the cache's blocks in
//     place: K is stored transposed per block, [d, block_tokens], and V
//     as [block_tokens, d] (serve/kv_cache.h). Each score is one
//     ascending-d FMA chain over a K column from +0, split at the
//     blocked GEMM's absolute KC boundaries — the chain the full path's
//     q·Kᵀ GEMM gives the same element. The softmax is
//     kernels::scaled_softmax's body on one [1, len] causal row, which
//     reduces max/exp/sum over exactly the `len` live entries in the
//     same order as row len-1 of the full [s, s] call.
//   * The context is one ascending-position FMA chain per element that
//     runs across blocks from +0 and splits at the same absolute KC
//     boundaries of the position axis: the chain of the full path's
//     probs·V GEMM with k = s, except that the full path also adds the
//     trailing terms of masked positions, whose probabilities are exact
//     zeros — adding them never changes the prefix sum's bits. Each
//     block's positions feed the chain in order, so no partial sum is
//     ever formed per block (that would reassociate the k sum).
//     Under MLS_KERNEL_REF=1 both chains follow gemm_ref instead, as the
//     full path's GEMMs then do.
//   * Collectives: decode all-reduces partial sums that are bitwise
//     equal to the full path's partials, over the same communicator.
//     Ring all-reduce chunks reassociate the rank sum, but a 2-rank
//     (or 1-rank) sum is order-free, so results match on the t ∈ {1, 2}
//     grids the equivalence tests pin. Dropout is inference-off (exact
//     identity) in both paths.
//
// Sequence-parallel models decode through the same TP-style collectives:
// a one-position step has no sequence dimension to shard, and the
// weight shards are identical with and without SP (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <vector>

#include "comm/comm.h"
#include "model/gpt.h"
#include "serve/kv_cache.h"

namespace mls::serve {

// One active sequence's contribution to a decode step: feed `token` at
// `position` (appending that position's K/V to `kv`), and optionally
// sample the next token from the resulting logits.
struct DecodeRow {
  int64_t token = 0;
  int64_t position = 0;
  SequenceKV* kv = nullptr;
  bool sample = false;        // this row is at its sampling frontier
  float temperature = 0.0f;   // sampling parameters (see generate.h)
  uint64_t seed = 1;
  int64_t sample_step = 0;    // index of the token being generated
};

class DecodeEngine {
 public:
  // The model must be a whole-model instance (embedding + head). The
  // engine only reads weights.
  explicit DecodeEngine(const model::GPTModel& model);

  // Runs one decode step over `rows` (any mix of prefill and decode
  // positions; each row appends one KV position). Returns one entry per
  // row: the sampled token for rows with sample == true, -1 otherwise.
  // All ranks of the TP group must call with identical rows.
  std::vector<int64_t> step(const std::vector<DecodeRow>& rows);

  const KVLayout& layout() const { return layout_; }

 private:
  Tensor embed_rows(const std::vector<DecodeRow>& rows);
  // ln1 -> QKV -> KV append -> per-row attention -> context -> proj
  // GEMM; returns the pre-reduction proj partial [n, h].
  Tensor attn_partial(int64_t layer, const Tensor& x,
                      const std::vector<DecodeRow>& rows);
  // Consumes the reduced attention partial: residual + ln2 + lin1 +
  // bias-GeLU + lin2 GEMM; returns the pre-reduction MLP partial and
  // stores the attention-residual stream in *x1.
  Tensor mlp_partial(int64_t layer, const Tensor& attn_reduced,
                     const Tensor& x, Tensor* x1);
  // Consumes the reduced MLP partial: bias + residual -> next layer x.
  Tensor finish_layer(int64_t layer, const Tensor& mlp_reduced,
                      const Tensor& x1);
  void reduce(Tensor& t, const char* site);
  std::vector<int64_t> sample_rows(const Tensor& hidden,
                                   const std::vector<DecodeRow>& rows);

  const model::GPTModel& model_;
  comm::Comm tp_;
  KVLayout layout_;
  float alpha_ = 1.0f;  // attention score scale, 1/sqrt(d)
  // Per-head decode scratch: scores/probs [max_ctx] (pooled once,
  // reused every step).
  Tensor sbuf_, pbuf_;
};

}  // namespace mls::serve
