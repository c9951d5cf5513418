// Node and SavedTensor: the backward graph's building blocks.
#pragma once

#include <memory>
#include <vector>

#include "autograd/var.h"
#include "common/memtracker.h"
#include "tensor/tensor.h"

namespace mls::ag {

// A tensor kept alive for the backward pass. Construction charges the
// calling rank's MemoryTracker with the tensor's logical byte size;
// reset()/destruction releases the charge. Parameters and other
// non-activation tensors are saved with counted=false.
//
// Move-only so a charge is owned by exactly one place.
class SavedTensor {
 public:
  SavedTensor() = default;
  SavedTensor(Tensor t, bool counted, bool major = true)
      : t_(std::move(t)), counted_(counted), major_(major) {
    if (counted_) {
      bytes_ = t_.logical_bytes();
      MemoryTracker::instance().on_save(bytes_, major_);
    }
  }
  SavedTensor(SavedTensor&& other) noexcept { *this = std::move(other); }
  SavedTensor& operator=(SavedTensor&& other) noexcept {
    reset();
    t_ = std::move(other.t_);
    bytes_ = other.bytes_;
    counted_ = other.counted_;
    major_ = other.major_;
    other.counted_ = false;
    other.t_ = Tensor();
    return *this;
  }
  SavedTensor(const SavedTensor&) = delete;
  SavedTensor& operator=(const SavedTensor&) = delete;
  ~SavedTensor() { reset(); }

  const Tensor& get() const {
    MLS_CHECK(t_.defined()) << "SavedTensor accessed after reset";
    return t_;
  }
  bool defined() const { return t_.defined(); }

  void reset() {
    if (counted_) {
      MemoryTracker::instance().on_release(bytes_, major_);
      counted_ = false;
    }
    t_ = Tensor();
  }

 private:
  Tensor t_;
  int64_t bytes_ = 0;
  bool counted_ = false;
  bool major_ = true;
};

// A backward-graph node. Owns strong references to its inputs'
// GradRecords (to keep the upstream graph alive) and a weak reference
// to its output's record (where the engine finds the accumulated
// output gradient). Records carry no values: whatever backward() reads
// of the forward, the node must have saved as a SavedTensor.
class Node {
 public:
  virtual ~Node() = default;

  // Given dL/d(output), returns dL/d(input_i) for each input. A default
  // (undefined) Tensor means "no gradient for this input".
  virtual std::vector<Tensor> backward(const Tensor& grad_out) = 0;

  virtual const char* name() const = 0;

  // Frees saved tensors after backward has consumed them. The engine
  // calls this right after backward() so the tracker's live-bytes curve
  // matches a real training system's (memory drains as backward walks
  // the graph).
  virtual void release_saved() {}

  std::vector<std::shared_ptr<GradRecord>> inputs;
  std::weak_ptr<GradRecord> output;
};

// Finalizes a fresh op result: attaches the node to the output Var if
// grad mode is on and any input requires grad. Returns the output Var.
Var make_output(Tensor value, std::shared_ptr<Node> node,
                const std::vector<Var>& inputs);

}  // namespace mls::ag
