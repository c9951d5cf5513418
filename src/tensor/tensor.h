// Tensor: a contiguous, row-major, reference-counted buffer with a
// shape and a logical dtype (see dtype.h).
//
// Design notes:
//  * Storage (tensor/storage.h: pooled, uninitialized buffers from the
//    per-rank caching allocator) is float32 for F16 and F32, whose
//    logical dtype only affects byte accounting (logical_bytes()), and
//    real bytes for U8 (dropout masks). data() and every float helper
//    refuse a U8 tensor; u8() is the only way to its bytes.
//  * empty() returns UNINITIALIZED storage — use zeros() when the
//    initial contents matter.
//  * Copying a Tensor is cheap (shared storage). clone() deep-copies.
//  * release() drops the storage while keeping shape/dtype metadata —
//    this implements the paper's Appendix B "output tensor
//    deallocation" optimization, where a pipeline stage frees the data
//    of its output after sending it downstream. The bytes go straight
//    back to the rank's pool for reuse.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/shape.h"
#include "tensor/dtype.h"
#include "tensor/storage.h"

namespace mls {

class Tensor {
 public:
  Tensor() = default;

  // Factories -------------------------------------------------------
  // empty() returns uninitialized pooled storage; every element must
  // be written before it is read. zeros() actually clears.
  static Tensor empty(Shape shape, Dtype dtype = Dtype::F16);
  static Tensor zeros(Shape shape, Dtype dtype = Dtype::F16);
  static Tensor full(Shape shape, float value, Dtype dtype = Dtype::F16);
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      Dtype dtype = Dtype::F16);
  static Tensor from_data(Shape shape, std::vector<float> data,
                          Dtype dtype = Dtype::F16);
  static Tensor scalar(float value, Dtype dtype = Dtype::F32);

  // Metadata ---------------------------------------------------------
  const Shape& shape() const { return shape_; }
  Dtype dtype() const { return dtype_; }
  int64_t numel() const { return shape_.numel(); }
  int ndim() const { return shape_.ndim(); }
  int64_t dim(int i) const { return shape_.dim(i); }
  bool defined() const { return storage_ != nullptr; }
  // True when no other Tensor (a copy or a view) shares this storage,
  // so a new owner may take it over instead of cloning it.
  bool unique() const { return storage_.use_count() == 1; }
  // Bytes this tensor would occupy on a real fp16 training system.
  int64_t logical_bytes() const { return numel() * byte_size(dtype_); }
  // Bytes its storage holds here (fp32 unless U8).
  int64_t storage_bytes() const { return numel() * storage_size(dtype_); }

  // Data access ------------------------------------------------------
  // fp32 storage of an F16/F32 tensor.
  float* data() { return static_cast<float*>(raw(/*u8=*/false)); }
  const float* data() const { return static_cast<float*>(raw(false)); }
  // Byte storage of a U8 tensor (a dropout mask: 0 dropped, 1 kept).
  uint8_t* u8() { return static_cast<uint8_t*>(raw(/*u8=*/true)); }
  const uint8_t* u8() const { return static_cast<uint8_t*>(raw(true)); }
  float item() const {
    MLS_CHECK_EQ(numel(), 1) << "item() on non-scalar " << shape_.str();
    return data()[0];
  }

  // Views and copies --------------------------------------------------
  // Shares storage; total element count must match.
  Tensor reshape(Shape new_shape) const;
  Tensor clone() const;
  // Same data, different logical dtype (affects accounting only; may
  // not cross between float and U8 storage).
  Tensor as_dtype(Dtype d) const;

  // Drops the underlying storage (Appendix B optimization). Metadata is
  // preserved so shape-dependent bookkeeping still works.
  void release() { storage_.reset(); }

  // In-place helpers ---------------------------------------------------
  void fill_(float v);
  void zero_() { fill_(0.f); }
  void add_(const Tensor& other, float alpha = 1.0f);
  void mul_(float v);
  void copy_from(const Tensor& other);

  // Reductions / test helpers -----------------------------------------
  float sum() const;
  float max_abs() const;
  bool allclose(const Tensor& other, float rtol = 1e-5f, float atol = 1e-6f) const;

  std::string str() const;  // short description for diagnostics

 private:
  // The storage pointer, if this tensor's storage kind is `u8`.
  void* raw(bool u8) const {
    MLS_CHECK(defined()) << "tensor storage has been released";
    MLS_CHECK((dtype_ == Dtype::U8) == u8)
        << (u8 ? "u8()" : "float access") << " on " << dtype_name(dtype_)
        << " tensor " << shape_.str();
    return storage_->data();
  }

  std::shared_ptr<Storage> storage_;
  Shape shape_;
  Dtype dtype_ = Dtype::F16;
};

}  // namespace mls
