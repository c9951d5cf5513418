#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace mls {

Tensor Tensor::empty(Shape shape, Dtype dtype) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.dtype_ = dtype;
  // Uninitialized pooled storage: no memset, and in the steady state no
  // system allocation either (the pool recycles freed buffers).
  t.storage_ = Storage::allocate(t.storage_bytes());
  return t;
}

Tensor Tensor::zeros(Shape shape, Dtype dtype) {
  Tensor t = empty(std::move(shape), dtype);
  std::memset(t.storage_->data(), 0, static_cast<size_t>(t.storage_bytes()));
  return t;
}

Tensor Tensor::full(Shape shape, float value, Dtype dtype) {
  Tensor t = empty(std::move(shape), dtype);
  t.fill_(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev, Dtype dtype) {
  Tensor t = empty(std::move(shape), dtype);
  rng.fill_normal(t.data(), t.numel(), 0.f, stddev);
  return t;
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data, Dtype dtype) {
  MLS_CHECK_EQ(shape.numel(), static_cast<int64_t>(data.size()));
  Tensor t = empty(std::move(shape), dtype);
  if (!data.empty()) {
    std::memcpy(t.data(), data.data(), sizeof(float) * data.size());
  }
  return t;
}

Tensor Tensor::scalar(float value, Dtype dtype) {
  return from_data(Shape{{1}}, {value}, dtype);
}

Tensor Tensor::reshape(Shape new_shape) const {
  MLS_CHECK_EQ(new_shape.numel(), numel())
      << "reshape " << shape_.str() << " -> " << new_shape.str();
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::clone() const {
  Tensor t = empty(shape_, dtype_);
  if (defined()) {
    std::memcpy(t.storage_->data(), storage_->data(),
                static_cast<size_t>(storage_bytes()));
  }
  return t;
}

Tensor Tensor::as_dtype(Dtype d) const {
  MLS_CHECK_EQ(storage_size(d), storage_size(dtype_))
      << "as_dtype " << dtype_name(dtype_) << " -> " << dtype_name(d)
      << " crosses between byte and float storage";
  Tensor t = *this;
  t.dtype_ = d;
  return t;
}

void Tensor::fill_(float v) {
  float* p = data();
  std::fill(p, p + numel(), v);
}

void Tensor::add_(const Tensor& other, float alpha) {
  MLS_CHECK(shape_ == other.shape())
      << "add_ shape mismatch " << shape_.str() << " vs " << other.shape().str();
  float* a = data();
  const float* b = other.data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) a[i] += alpha * b[i];
}

void Tensor::mul_(float v) {
  float* p = data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] *= v;
}

void Tensor::copy_from(const Tensor& other) {
  MLS_CHECK_EQ(numel(), other.numel());
  std::memcpy(data(), other.data(), sizeof(float) * numel());
}

float Tensor::sum() const {
  const float* p = data();
  double acc = 0.0;
  for (int64_t i = 0; i < numel(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

float Tensor::max_abs() const {
  const float* p = data();
  float m = 0.f;
  for (int64_t i = 0; i < numel(); ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

bool Tensor::allclose(const Tensor& other, float rtol, float atol) const {
  if (shape_ != other.shape()) return false;
  const float* a = data();
  const float* b = other.data();
  for (int64_t i = 0; i < numel(); ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    if (diff > atol + rtol * std::fabs(b[i])) return false;
  }
  return true;
}

std::string Tensor::str() const {
  std::ostringstream os;
  os << "Tensor(" << shape_.str() << ", " << dtype_name(dtype_)
     << (defined() ? "" : ", released") << ")";
  return os.str();
}

}  // namespace mls
