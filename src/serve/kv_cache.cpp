#include "serve/kv_cache.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/memtracker.h"
#include "common/shape.h"
#include "fault/inject.h"
#include "memory/pool_allocator.h"

namespace mls::serve {

namespace {

void note_reserved(KVStats& st, int64_t logical_delta) {
  st.reserved_bytes += logical_delta;
  st.reserved_peak = std::max(st.reserved_peak, st.reserved_bytes);
  if (logical_delta > 0) {
    MemoryTracker::instance().on_kv_alloc(logical_delta);
  } else {
    MemoryTracker::instance().on_kv_free(-logical_delta);
  }
}

void note_used(KVStats& st, int64_t logical_delta) {
  st.used_bytes += logical_delta;
  st.used_peak = std::max(st.used_peak, st.used_bytes);
}

}  // namespace

KVCache::KVCache(const KVLayout& layout, int64_t budget_tokens)
    : layout_(layout), capacity_blocks_(budget_tokens / layout.block_tokens) {
  MLS_CHECK_GT(capacity_blocks_, 0) << "KV budget below one block";
  stats_.blocks_total = capacity_blocks_;
  stats_.blocks_free = capacity_blocks_;
  blocks_.reserve(static_cast<size_t>(capacity_blocks_));
}

int64_t KVCache::acquire_block() {
  // Injected oom ("kv.block") and a genuinely over-budget arena both
  // land on the same failure edge the scheduler already survives:
  // reserve() returns false and the latest sequence is preempted.
  if (fault::on_oom("kv.block")) {
    ++stats_.reserve_failures;
    return -1;
  }
  int64_t id = -1;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else if (static_cast<int64_t>(blocks_.size()) < capacity_blocks_) {
    id = static_cast<int64_t>(blocks_.size());
    try {
      // Zeroed once, so every float of a block is defined: decode
      // attention reads whole vectors of K columns, live or not.
      blocks_.push_back(Tensor::zeros(
          Shape{{layout_.layers, 2, layout_.heads_local,
                 layout_.block_tokens * layout_.d}}));
    } catch (const memory::MemoryPressureError&) {
      ++stats_.reserve_failures;
      return -1;
    }
  } else {
    ++stats_.reserve_failures;
    return -1;
  }
  --stats_.blocks_free;
  note_reserved(stats_,
                layout_.logical_bytes_per_token() * layout_.block_tokens);
  return id;
}

void KVCache::release_block(int64_t id) {
  free_list_.push_back(id);
  ++stats_.blocks_free;
  note_reserved(stats_,
                -layout_.logical_bytes_per_token() * layout_.block_tokens);
}

SequenceKV::SequenceKV(KVCache* cache, int64_t total_tokens)
    : cache_(cache),
      worst_case_bytes_(total_tokens *
                        cache->layout().logical_bytes_per_token()) {
  table_.reserve(static_cast<size_t>(cache_->layout().blocks_for(total_tokens)));
  block_ptrs_.reserve(table_.capacity());
  KVStats& st = cache_->stats_;
  st.worst_case_reserved += worst_case_bytes_;
  st.worst_case_peak = std::max(st.worst_case_peak, st.worst_case_reserved);
}

SequenceKV::~SequenceKV() {
  KVStats& st = cache_->stats_;
  note_used(st, -cached_ * cache_->layout().logical_bytes_per_token());
  for (int64_t id : table_) cache_->release_block(id);
  st.worst_case_reserved -= worst_case_bytes_;
  ++st.sequences_freed;
}

bool SequenceKV::reserve(int64_t pos) {
  const int64_t block_idx = pos / cache_->layout().block_tokens;
  MLS_CHECK_LE(block_idx, static_cast<int64_t>(table_.size()))
      << "positions must be reserved in order";
  if (block_idx < static_cast<int64_t>(table_.size())) return true;
  const int64_t id = cache_->acquire_block();
  if (id < 0) return false;
  table_.push_back(id);
  block_ptrs_.push_back(cache_->block_data(id));
  return true;
}

namespace {

// Offsets of (layer, head)'s K and V slices inside a block laid out
// [L, 2, heads_local, block_tokens * d].
int64_t slice_offset(const KVLayout& lo, int64_t layer, int64_t kv,
                     int64_t head) {
  return ((layer * 2 + kv) * lo.heads_local + head) * lo.block_tokens * lo.d;
}

}  // namespace

void SequenceKV::append(int64_t pos, int64_t layer, int64_t head,
                        const float* k, const float* v) {
  const KVLayout& lo = cache_->layout();
  const int64_t bt = lo.block_tokens;
  MLS_CHECK_LT(pos / bt, static_cast<int64_t>(table_.size()))
      << "append without reserve";
  float* base = cache_->block_data(table_[static_cast<size_t>(pos / bt)]);
  const int64_t t = pos % bt;
  // K column t of the [d, bt] slice; V row t of the [bt, d] slice.
  float* kd = base + slice_offset(lo, layer, 0, head) + t;
  for (int64_t i = 0; i < lo.d; ++i) kd[i * bt] = k[i];
  std::memcpy(base + slice_offset(lo, layer, 1, head) + t * lo.d, v,
              static_cast<size_t>(lo.d) * sizeof(float));
  // One decode step appends every (layer, head) of one position; count
  // the position once, when its first row lands.
  if (layer == 0 && head == 0) {
    ++cached_;
    KVStats& st = cache_->stats_;
    ++st.appends;
    note_used(st, lo.logical_bytes_per_token());
  }
}

kernels::PagedKV SequenceKV::paged(int64_t layer, int64_t head) const {
  const KVLayout& lo = cache_->layout();
  return {block_ptrs_.data(), lo.block_tokens, slice_offset(lo, layer, 0, head),
          slice_offset(lo, layer, 1, head)};
}

KVLayout kv_layout(const model::ModelConfig& cfg, int tp_size,
                   int64_t block_tokens) {
  KVLayout lo;
  lo.layers = cfg.L;
  lo.heads_local = cfg.a / tp_size;
  lo.d = cfg.h / cfg.a;
  lo.block_tokens = block_tokens;
  lo.max_ctx = cfg.s;
  return lo;
}

}  // namespace mls::serve
