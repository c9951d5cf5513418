#include "tensor/storage.h"

#include "common/check.h"
#include "memory/pool_allocator.h"

namespace mls {

Storage::Storage(float* data, std::shared_ptr<memory::PoolAllocator> arena)
    : data_(data), arena_(std::move(arena)) {}

Storage::~Storage() {
  if (arena_) arena_->deallocate(data_);
}

std::shared_ptr<Storage> Storage::allocate(int64_t bytes) {
  MLS_CHECK_GE(bytes, 0);
  auto arena = memory::PoolAllocator::current();
  float* p = arena->allocate(bytes);
  return std::shared_ptr<Storage>(new Storage(p, std::move(arena)));
}

}  // namespace mls
