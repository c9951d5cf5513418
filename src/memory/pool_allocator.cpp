#include "memory/pool_allocator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "common/units.h"
#include "core/env.h"
#include "fault/inject.h"

namespace mls::memory {

std::string AllocStats::report(const std::string& name) const {
  std::ostringstream os;
  char pct[32];
  std::snprintf(pct, sizeof(pct), "%.1f%%", hit_rate() * 100.0);
  os << "allocator report (" << name << "):\n"
     << "  allocs=" << allocs << " frees=" << frees << " pool-hits="
     << pool_hits << " (" << pct << " hit rate) misses=" << pool_misses
     << "\n"
     << "  splits=" << splits << " coalesces=" << coalesces
     << " cross-thread-frees=" << cross_thread_frees << "\n"
     << "  in-use " << format_bytes(static_cast<double>(bytes_in_use))
     << " (peak " << format_bytes(static_cast<double>(in_use_peak)) << ")"
     << " | cached " << format_bytes(static_cast<double>(bytes_cached))
     << " | physical " << format_bytes(static_cast<double>(physical_bytes))
     << " (peak " << format_bytes(static_cast<double>(physical_peak)) << ", "
     << segments << " segment" << (segments == 1 ? "" : "s") << ")\n";
  std::snprintf(pct, sizeof(pct), "%.1f%%", fragmentation() * 100.0);
  os << "  largest-free-block "
     << format_bytes(static_cast<double>(largest_free_block))
     << " | fragmentation " << pct;
  if (budget_bytes >= 0) {
    os << "\n  budget " << format_bytes(static_cast<double>(budget_bytes))
       << " | oom-trims " << oom_trims << " | oom-failures " << oom_failures;
  }
  return os.str();
}

std::string AllocStats::json() const {
  std::ostringstream os;
  os << "{\"allocs\":" << allocs << ",\"frees\":" << frees
     << ",\"pool_hits\":" << pool_hits << ",\"pool_misses\":" << pool_misses
     << ",\"splits\":" << splits << ",\"coalesces\":" << coalesces
     << ",\"cross_thread_frees\":" << cross_thread_frees
     << ",\"bytes_in_use\":" << bytes_in_use
     << ",\"in_use_peak\":" << in_use_peak
     << ",\"bytes_cached\":" << bytes_cached
     << ",\"physical_bytes\":" << physical_bytes
     << ",\"physical_peak\":" << physical_peak << ",\"segments\":" << segments
     << ",\"largest_free_block\":" << largest_free_block
     << ",\"budget_bytes\":" << budget_bytes << ",\"oom_trims\":" << oom_trims
     << ",\"oom_failures\":" << oom_failures
     << ",\"hit_rate\":" << hit_rate()
     << ",\"fragmentation\":" << fragmentation() << "}";
  return os.str();
}

PoolAllocator::Config PoolAllocator::Config::from_env() {
  Config cfg;
  cfg.enabled = core::Env::flag("MLS_ALLOC_POOL", true);
  cfg.budget_bytes =
      core::Env::integer("MLS_MEM_BUDGET_BYTES", cfg.budget_bytes);
  cfg.report_at_exit = core::Env::flag("MLS_ALLOC_STATS", false);
  return cfg;
}

namespace {

// Current-arena override installed by ArenaGuard; never owns the last
// reference (the guard on the stack does), so plain TLS pointer-free
// shared_ptr is safe.
thread_local std::shared_ptr<PoolAllocator> t_arena_override;

}  // namespace

const std::shared_ptr<PoolAllocator>& PoolAllocator::this_thread() {
  thread_local std::shared_ptr<PoolAllocator> arena;
  if (!arena) {
    std::ostringstream os;
    os << "thread-" << std::this_thread::get_id();
    arena = std::make_shared<PoolAllocator>(Config::from_env(), os.str());
  }
  return arena;
}

std::shared_ptr<PoolAllocator> PoolAllocator::current() {
  if (t_arena_override) return t_arena_override;
  return this_thread();
}

ArenaGuard::ArenaGuard(std::shared_ptr<PoolAllocator> arena)
    : prev_(std::move(t_arena_override)) {
  t_arena_override = std::move(arena);
}

ArenaGuard::~ArenaGuard() { t_arena_override = std::move(prev_); }

PoolAllocator::PoolAllocator(Config cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)), owner_(std::this_thread::get_id()) {
  stats_.budget_bytes = cfg_.budget_bytes;
}

PoolAllocator::~PoolAllocator() {
  // No allocation can race this: every Storage holds a shared_ptr to
  // its arena and completes its deallocate() before dropping it.
  std::lock_guard<std::mutex> lock(mu_);
  drain_pending_locked();
  if (cfg_.report_at_exit) {
    if (!free_blocks_.empty()) {
      stats_.largest_free_block = (*free_blocks_.rbegin())->size;
    }
    stats_.segments = static_cast<int64_t>(segments_.size());
    std::fputs((stats_.report(name_) + "\n").c_str(), stderr);
  }
  for (auto& [p, sz] : passthrough_sizes_) std::free(p);
  for (auto& seg : segments_) {
    for (Block* b = seg->first; b != nullptr;) {
      Block* next = b->next;
      delete b;
      b = next;
    }
    std::free(seg->base);
  }
}

int64_t PoolAllocator::rounded(int64_t bytes) const {
  const int64_t b = std::max<int64_t>(bytes, 1);
  return (b + cfg_.round - 1) / cfg_.round * cfg_.round;
}

void PoolAllocator::note_physical(int64_t delta) {
  stats_.physical_bytes += delta;
  stats_.physical_peak = std::max(stats_.physical_peak, stats_.physical_bytes);
}

void PoolAllocator::insert_free_locked(Block* b) {
  free_blocks_.insert(b);
  stats_.bytes_cached += b->size;
}

void PoolAllocator::erase_free_locked(Block* b) {
  free_blocks_.erase(b);
  stats_.bytes_cached -= b->size;
}

// Splits `b` (not in the free index) so it is exactly `want` bytes; the
// remainder becomes a new free block classified by its own size.
PoolAllocator::Block* PoolAllocator::split_locked(Block* b, int64_t want) {
  const int64_t remainder = b->size - want;
  if (remainder < cfg_.round) return b;  // keep slack attached
  Block* rest = new Block;
  rest->ptr = reinterpret_cast<float*>(
      reinterpret_cast<char*>(b->ptr) + want);
  rest->size = remainder;
  rest->seg = b->seg;
  rest->prev = b;
  rest->next = b->next;
  if (b->next != nullptr) b->next->prev = rest;
  b->next = rest;
  b->size = want;
  insert_free_locked(rest);
  ++stats_.splits;
  return b;
}

AllocStats PoolAllocator::snapshot_locked() const {
  AllocStats s = stats_;
  s.segments = static_cast<int64_t>(segments_.size()) +
               static_cast<int64_t>(passthrough_sizes_.size());
  s.largest_free_block =
      free_blocks_.empty() ? 0 : (*free_blocks_.rbegin())->size;
  return s;
}

void PoolAllocator::ensure_budget_locked(int64_t seg_size, int64_t requested,
                                         bool forced) {
  const bool budgeted = cfg_.budget_bytes >= 0;
  if (!forced) {
    if (!budgeted) return;
    if (stats_.physical_bytes + seg_size <= cfg_.budget_bytes) return;
  }
  // First response to pressure: give cached-but-idle segments back to
  // the system and re-check — the CUDA allocator's
  // cudaMalloc-failed-then-emptyCache retry.
  trim_locked();
  ++stats_.oom_trims;
  if (!forced && stats_.physical_bytes + seg_size <= cfg_.budget_bytes) {
    return;
  }
  ++stats_.oom_failures;
  const AllocStats snap = snapshot_locked();
  std::ostringstream os;
  os << "memory pressure in pool " << name_ << ": "
     << (forced ? "injected oom at" : "segment of") << " " << seg_size
     << " bytes (request " << requested << " B) "
     << (forced ? "" : "exceeds budget ") << "";
  if (budgeted) os << cfg_.budget_bytes << " B budget, ";
  os << "after trim: in-use " << snap.bytes_in_use << " B, cached "
     << snap.bytes_cached << " B, physical " << snap.physical_bytes
     << " B across " << snap.segments << " segments, fragmentation "
     << static_cast<int>(snap.fragmentation() * 100.0) << "%";
  throw MemoryPressureError(os.str(), requested, snap);
}

float* PoolAllocator::allocate_locked(int64_t bytes) {
  ++stats_.allocs;
  // Deterministic chaos: an armed `oom` fault at an allocation site
  // fails this acquisition exactly as a budget overrun would — same
  // trim attempt, same structured error.
  const bool injected = fault::on_oom("alloc");
  if (!cfg_.enabled) {
    // Passthrough mode: a system allocation per buffer, exactly what
    // the pre-pool code paid. Counted so benches can print the delta.
    const int64_t sz = std::max<int64_t>(bytes, 4);
    ensure_budget_locked(sz, bytes, injected);
    auto* p = static_cast<float*>(std::malloc(static_cast<size_t>(sz)));
    MLS_CHECK(p != nullptr) << "malloc of " << sz << " bytes failed";
    passthrough_sizes_.emplace(p, sz);
    ++stats_.pool_misses;
    stats_.bytes_in_use += sz;
    stats_.in_use_peak = std::max(stats_.in_use_peak, stats_.bytes_in_use);
    note_physical(sz);
    return p;
  }

  const int64_t want = rounded(bytes);
  // An injected fault fails the request even when the cache could have
  // served it: chaos timing must not depend on what happens to be
  // cached, or the same seed would fire at different sites across runs.
  if (injected) ensure_budget_locked(want, bytes, /*forced=*/true);
  Block key;
  key.size = want;
  key.ptr = nullptr;
  auto it = free_blocks_.lower_bound(&key);  // best fit: (size, addr) order
  Block* b;
  if (it != free_blocks_.end()) {
    b = *it;
    erase_free_locked(b);
    b = split_locked(b, want);
    ++stats_.pool_hits;
  } else {
    // Miss: obtain a segment. Small requests share pre-sized slabs so
    // one system allocation serves many buffers.
    int64_t seg_size =
        want <= cfg_.small_limit ? std::max(cfg_.small_segment, want) : want;
    // Under a budget, a full slab is a luxury: degrade to an exact-fit
    // segment before declaring pressure.
    if (cfg_.budget_bytes >= 0 && seg_size > want &&
        stats_.physical_bytes + seg_size > cfg_.budget_bytes) {
      seg_size = want;
    }
    ensure_budget_locked(seg_size, bytes, /*forced=*/false);
    void* base = std::malloc(static_cast<size_t>(seg_size));
    MLS_CHECK(base != nullptr) << "segment malloc of " << seg_size
                               << " bytes failed (pool " << name_ << ")";
    auto seg = std::make_unique<Segment>();
    seg->base = base;
    seg->size = seg_size;
    b = new Block;
    b->ptr = static_cast<float*>(base);
    b->size = seg_size;
    b->seg = seg.get();
    seg->first = b;
    segments_.push_back(std::move(seg));
    note_physical(seg_size);
    b = split_locked(b, want);
    ++stats_.pool_misses;
  }
  b->in_use = true;
  live_blocks_.emplace(b->ptr, b);
  stats_.bytes_in_use += b->size;
  stats_.in_use_peak = std::max(stats_.in_use_peak, stats_.bytes_in_use);
  return b->ptr;
}

float* PoolAllocator::allocate(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  drain_pending_locked();
  return allocate_locked(bytes);
}

void PoolAllocator::deallocate(float* p) {
  if (p == nullptr) return;
  if (is_owner_thread()) {
    std::lock_guard<std::mutex> lock(mu_);
    free_ptr_locked(p, /*cross_thread=*/false);
    return;
  }
  // Foreign thread (a peer rank): enqueue for the
  // owner to drain rather than mutating pool structures from here.
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.push_back(p);
}

void PoolAllocator::free_ptr_locked(float* p, bool cross_thread) {
  ++stats_.frees;
  if (cross_thread) ++stats_.cross_thread_frees;
  auto pt = passthrough_sizes_.find(p);
  if (pt != passthrough_sizes_.end()) {
    stats_.bytes_in_use -= pt->second;
    note_physical(-pt->second);
    std::free(p);
    passthrough_sizes_.erase(pt);
    return;
  }
  auto it = live_blocks_.find(p);
  MLS_CHECK(it != live_blocks_.end())
      << "free of pointer not owned by pool " << name_;
  Block* b = it->second;
  live_blocks_.erase(it);
  b->in_use = false;
  stats_.bytes_in_use -= b->size;
  // Coalesce with free neighbours so churn cannot shatter a segment.
  if (b->prev != nullptr && !b->prev->in_use) {
    Block* left = b->prev;
    erase_free_locked(left);
    left->size += b->size;
    left->next = b->next;
    if (b->next != nullptr) b->next->prev = left;
    delete b;
    b = left;
    ++stats_.coalesces;
  }
  if (b->next != nullptr && !b->next->in_use) {
    Block* right = b->next;
    erase_free_locked(right);
    b->size += right->size;
    b->next = right->next;
    if (right->next != nullptr) right->next->prev = b;
    delete right;
    ++stats_.coalesces;
  }
  insert_free_locked(b);
  if (cfg_.max_cached >= 0 && stats_.bytes_cached > cfg_.max_cached) {
    trim_locked();
  }
}

void PoolAllocator::drain_pending_locked() {
  std::vector<float*> drained;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    drained.swap(pending_);
  }
  for (float* p : drained) free_ptr_locked(p, /*cross_thread=*/true);
}

void PoolAllocator::trim_locked() {
  // A fully-free segment is one whose blocks have all coalesced back
  // into a single free block spanning it.
  for (auto it = segments_.begin(); it != segments_.end();) {
    Segment* seg = it->get();
    Block* b = seg->first;
    if (b != nullptr && !b->in_use && b->next == nullptr &&
        b->size == seg->size) {
      erase_free_locked(b);
      delete b;
      note_physical(-seg->size);
      std::free(seg->base);
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
}

void PoolAllocator::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  drain_pending_locked();
  trim_locked();
}

AllocStats PoolAllocator::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  drain_pending_locked();
  AllocStats s = stats_;
  s.segments = static_cast<int64_t>(segments_.size()) +
               static_cast<int64_t>(passthrough_sizes_.size());
  s.largest_free_block =
      free_blocks_.empty() ? 0 : (*free_blocks_.rbegin())->size;
  return s;
}

void PoolAllocator::reset_physical_peak() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.physical_peak = stats_.physical_bytes;
  stats_.in_use_peak = stats_.bytes_in_use;
}

}  // namespace mls::memory
