// Per-rank KV cache for incremental decode: a vLLM-style block table
// over the pool allocator.
//
// Layout: one physical block covers `block_tokens` consecutive token
// positions of ONE sequence across ALL layers and this rank's local
// heads, as [L, 2, heads_local, block_tokens * d] (2 = K then V). Each
// (layer, head) K slice is stored transposed, [d, block_tokens], and
// each V slice as [block_tokens, d]: the two operand layouts of one
// decode attention row (kernels::decode_attention), which reads them in
// place — scores walk K's columns, the context walks V's rows. An
// append writes one K column (d strided floats) and one V row.
//
// Accounting runs on two axes, as everywhere in this repo:
//   * physical — fp32 simulation bytes, owned by the rank's pooled
//     arena (blocks are ordinary Tensors; freeing a sequence returns
//     its blocks to the cache's free list, freeing the cache returns
//     the segments to the arena);
//   * logical  — fp16 bytes per cached token (the paper's accounting,
//     extended from activations to KV: 2·2·h/t·L bytes per position),
//     charged to MemoryTracker's KV axis so serve peaks sit next to
//     training-activation peaks in one report.
//
// Fragmentation: reserved-but-unwritten bytes. The block table wastes
// at most (block_tokens - 1) positions per live sequence. KVStats also
// keeps a counterfactual: the bytes a whole-sequence cache would hold
// if it reserved each live request's worst-case length up front.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/config.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace mls::serve {

struct KVLayout {
  int64_t layers = 0;        // transformer layers cached
  int64_t heads_local = 0;   // this rank's heads (a / t)
  int64_t d = 0;             // head dimension
  int64_t block_tokens = 0;  // positions per block
  int64_t max_ctx = 0;       // trained sequence length (position limit)

  // Cache floats for one token position (all layers, K and V).
  int64_t floats_per_token() const { return layers * 2 * heads_local * d; }
  int64_t floats_per_block() const {
    return floats_per_token() * block_tokens;
  }
  // Logical fp16 bytes per cached token position.
  int64_t logical_bytes_per_token() const { return floats_per_token() * 2; }
  int64_t blocks_for(int64_t tokens) const {
    return (tokens + block_tokens - 1) / block_tokens;
  }
};

// The layout of `cfg`'s cache on one rank of a `tp_size`-way tensor-
// parallel group (each rank caches its a/t heads of every layer).
KVLayout kv_layout(const model::ModelConfig& cfg, int tp_size,
                   int64_t block_tokens);

struct KVStats {
  int64_t reserved_bytes = 0;  // logical bytes held by live sequences
  int64_t used_bytes = 0;      // logical bytes of tokens actually cached
  int64_t reserved_peak = 0;
  int64_t used_peak = 0;
  // Counterfactual whole-sequence reservation: the logical bytes of
  // every live sequence's worst-case length (create()'s total_tokens),
  // held from creation to destruction. Not charged to MemoryTracker.
  int64_t worst_case_reserved = 0;
  int64_t worst_case_peak = 0;
  int64_t blocks_total = 0;      // pool capacity in blocks
  int64_t blocks_free = 0;       // currently unattached
  int64_t appends = 0;           // token positions written
  int64_t reserve_failures = 0;  // reserve() calls that found no room
  int64_t sequences_freed = 0;

  // Fraction of reserved bytes never written — internal fragmentation.
  double waste() const {
    return reserved_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(used_bytes) /
                           static_cast<double>(reserved_bytes);
  }
};

class KVCache;

// One sequence's cached keys/values: its block table. Destroying the
// handle returns its blocks to the cache (eviction and normal
// retirement are the same path). Positions must be appended in order,
// 0, 1, 2, ...
class SequenceKV {
 public:
  // Use KVCache::create.
  SequenceKV(KVCache* cache, int64_t total_tokens);
  ~SequenceKV();
  SequenceKV(const SequenceKV&) = delete;
  SequenceKV& operator=(const SequenceKV&) = delete;

  // Ensures capacity for position `pos`: attaches a block when pos
  // crosses a block boundary; returns false if the pool is empty (the
  // scheduler then preempts).
  bool reserve(int64_t pos);
  // Stores the K and V vectors (d floats each) of one (position, layer,
  // head): K as a column of its block's K slice, V as a row of its V
  // slice. reserve(pos) must have succeeded.
  void append(int64_t pos, int64_t layer, int64_t head, const float* k,
              const float* v);
  // (layer, head)'s K/V slices across this sequence's blocks, in
  // position order: the operand kernels::decode_attention reads in
  // place. Valid until the next reserve().
  kernels::PagedKV paged(int64_t layer, int64_t head) const;

 private:
  KVCache* cache_;
  std::vector<int64_t> table_;  // block ids, in position order
  // The blocks' storage, in the same order.
  std::vector<const float*> block_ptrs_;
  int64_t cached_ = 0;          // positions appended
  int64_t worst_case_bytes_;    // counterfactual charge, see KVStats
};

// The per-rank cache: fixed-size token blocks drawn lazily from the
// rank's pooled arena, per-sequence block tables, free-list reuse.
// Every SequenceKV must be destroyed before its KVCache.
class KVCache {
 public:
  // Holds floor(budget_tokens / block_tokens) blocks.
  KVCache(const KVLayout& layout, int64_t budget_tokens);
  // Live SequenceKVs hold the cache's address.
  KVCache(const KVCache&) = delete;
  KVCache& operator=(const KVCache&) = delete;

  // Could a sequence needing `total_tokens` cached positions EVER run
  // to completion alone on this cache? The scheduler rejects requests
  // that fail this (they would thrash the preemption loop forever).
  bool fits_alone(int64_t total_tokens) const {
    return layout_.blocks_for(total_tokens) <= capacity_blocks_;
  }
  // Room to admit a new sequence right now: a free block for its first
  // position (growth is incremental, preemption handles pressure).
  bool can_admit() const { return stats_.blocks_free >= 1; }
  // Creates a sequence handle; call only after can_admit. `total_tokens`
  // is the worst-case cached-position count for the request.
  std::unique_ptr<SequenceKV> create(int64_t total_tokens) {
    return std::make_unique<SequenceKV>(this, total_tokens);
  }
  // Attached blocks / pool capacity, in [0, 1] — the signal the
  // scheduler's soft/hard watermarks classify.
  double occupancy() const {
    return 1.0 - static_cast<double>(stats_.blocks_free) /
                     static_cast<double>(capacity_blocks_);
  }
  const KVStats& stats() const { return stats_; }
  const KVLayout& layout() const { return layout_; }

 private:
  friend class SequenceKV;
  // Attaches a free block (lazily materializing its Tensor on first
  // use); -1 when the pool is exhausted.
  int64_t acquire_block();
  void release_block(int64_t id);
  float* block_data(int64_t id) {
    return blocks_[static_cast<size_t>(id)].data();
  }

  KVLayout layout_;
  int64_t capacity_blocks_;
  std::vector<Tensor> blocks_;      // materialized blocks, by id
  std::vector<int64_t> free_list_;  // ids available for reuse
  KVStats stats_;
};

}  // namespace mls::serve
