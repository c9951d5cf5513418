#include "common/memtracker.h"

#include <algorithm>

#include "memory/pool_allocator.h"

namespace mls {

MemoryTracker& MemoryTracker::instance() {
  thread_local MemoryTracker tracker;
  return tracker;
}

void MemoryTracker::on_save(int64_t bytes, bool major) {
  (major ? current_major_ : current_minor_) += bytes;
  update_peak();
}

void MemoryTracker::on_release(int64_t bytes, bool major) {
  (major ? current_major_ : current_minor_) -= bytes;
}

void MemoryTracker::on_alloc_extra(int64_t bytes) {
  extra_ += bytes;
  update_peak();
}

void MemoryTracker::on_free_extra(int64_t bytes) { extra_ -= bytes; }

// The physical axis delegates to the rank's arena: tracker and arena
// are both thread_local, so they describe the same simulated GPU.
int64_t MemoryTracker::physical_bytes() const {
  return memory::PoolAllocator::this_thread()->stats().physical_bytes;
}

int64_t MemoryTracker::physical_peak_bytes() const {
  return memory::PoolAllocator::this_thread()->stats().physical_peak;
}

int64_t MemoryTracker::pooled_in_use_bytes() const {
  return memory::PoolAllocator::this_thread()->stats().bytes_in_use;
}

int64_t MemoryTracker::pooled_in_use_peak_bytes() const {
  return memory::PoolAllocator::this_thread()->stats().in_use_peak;
}

void MemoryTracker::reset_physical_peak() {
  memory::PoolAllocator::this_thread()->reset_physical_peak();
}

std::string MemoryTracker::allocator_report() const {
  auto& arena = memory::PoolAllocator::this_thread();
  return arena->stats().report(arena->name());
}

memory::AllocStats MemoryTracker::allocator_stats() const {
  return memory::PoolAllocator::this_thread()->stats();
}

void MemoryTracker::on_kv_alloc(int64_t bytes) {
  kv_ += bytes;
  kv_peak_ = std::max(kv_peak_, kv_);
}

void MemoryTracker::on_kv_free(int64_t bytes) { kv_ -= bytes; }

void MemoryTracker::update_peak() {
  peak_ = std::max(peak_, current_major_ + current_minor_ + extra_);
}

void MemoryTracker::reset() {
  current_major_ = current_minor_ = peak_ = extra_ = 0;
  kv_ = kv_peak_ = 0;
}

}  // namespace mls
