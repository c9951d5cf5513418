// Storage: the raw buffer underneath a Tensor — a pointer and the
// arena that owns the bytes. This replaces the seed's
// `shared_ptr<std::vector<float>>`, which paid a heap allocation plus
// a redundant zero-initializing memset per tensor; Storage draws
// *uninitialized* memory from the per-rank caching PoolAllocator
// (src/memory/pool_allocator.h) and returns it to the pool when the
// last reference drops.
//
// Lifetime contract: a Storage keeps a shared_ptr to its arena, so a
// buffer may safely outlive the rank thread that allocated it (mailbox
// messages, results collected on the main thread); the arena's cached
// segments are released only after the last of its buffers dies.
// Destruction from a foreign thread goes through the arena's
// cross-thread free queue.
#pragma once

#include <cstdint>
#include <memory>

namespace mls {

namespace memory {
class PoolAllocator;
}

class Storage {
 public:
  // An *uninitialized* buffer of `bytes` bytes from the current arena
  // (the calling thread's, or an ArenaGuard override). Callers must
  // write every element they read.
  static std::shared_ptr<Storage> allocate(int64_t bytes);

  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  // Untyped: Tensor picks the element type from its dtype (fp32 for
  // F16/F32, bytes for a U8 mask; see dtype.h storage_size).
  // Its size is Tensor::storage_bytes (the *logical* fp16/mask
  // accounting is Tensor::logical_bytes).
  void* data() const { return data_; }

 private:
  Storage(float* data, std::shared_ptr<memory::PoolAllocator> arena);

  float* data_ = nullptr;
  std::shared_ptr<memory::PoolAllocator> arena_;
};

}  // namespace mls
