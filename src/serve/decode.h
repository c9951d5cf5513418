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
//   * Attention scores are per-key dot products (k = d, unchanged);
//     the softmax runs kernels::scaled_softmax on one [1, len] causal
//     row, which reduces max/exp/sum over exactly the `len` live
//     entries in the same sequential order as row len-1 of the full
//     [s, s] call.
//   * The probs·V contraction gathers the cached V rows into ONE
//     contiguous [len, d] scratch and runs a single GEMM with k = len
//     (one row, so it too reads V in place).
//     The full path's k = s reduction only adds trailing terms whose
//     probabilities are exact zeros (masked positions), and the kernel
//     accumulates k-panels at fixed absolute boundaries — adding
//     trailing zero terms never changes the prefix sum's bits. (Per-
//     block partial GEMMs summed across pages would NOT be bit-safe:
//     that reassociates the k sum. This is why gather exists.)
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
//
// Overlap. With `overlap` on (and t > 1, n >= 2), the batch is split
// into two half-batches and each layer's two all-reduces are issued
// nonblocking on the rank's comm stream (PR-1), software-pipelined so
// one half's collective rides under the other half's attention/MLP
// compute. The comm ordering contract (comm.h: one in-flight collective
// per communicator, same sequence on all ranks) is kept by construction:
// every handle is waited before the next collective launches, and the
// group split depends only on n, which is identical on all ranks.
// Numerics are unchanged — same partials, same reduction, same order.
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
  // engine only reads weights; `overlap` enables the pipelined
  // collectives described above.
  DecodeEngine(const model::GPTModel& model, bool overlap);

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
                      const std::vector<DecodeRow>& rows, int64_t row_begin);
  // Consumes the reduced attention partial: residual + ln2 + lin1 +
  // bias-GeLU + lin2 GEMM; returns the pre-reduction MLP partial and
  // stores the attention-residual stream in *x1.
  Tensor mlp_partial(int64_t layer, const Tensor& attn_reduced,
                     const Tensor& x, Tensor* x1);
  // Consumes the reduced MLP partial: bias + residual -> next layer x.
  Tensor finish_layer(int64_t layer, const Tensor& mlp_reduced,
                      const Tensor& x1);
  void reduce(Tensor& t, const char* site);
  std::vector<int64_t> sample_rows(const std::vector<Tensor>& hidden,
                                   const std::vector<int64_t>& splits,
                                   const std::vector<DecodeRow>& rows);

  const model::GPTModel& model_;
  comm::Comm tp_;
  KVLayout layout_;
  bool overlap_ = false;
  float alpha_ = 1.0f;  // attention score scale, 1/sqrt(d)
  // Per-head decode scratch: gathered K/V [max_ctx, d], scores/probs
  // [max_ctx] (pooled once, reused every step).
  Tensor kbuf_, vbuf_, sbuf_, pbuf_;
};

}  // namespace mls::serve
