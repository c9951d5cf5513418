// Var: a tensor participating in reverse-mode automatic differentiation.
//
// The graph is a classic define-by-run tape: each differentiable op
// creates a Node holding (a) the GradRecords of its inputs and (b)
// SavedTensors for whatever its backward needs. A GradRecord is
// value-free: the graph reaches grads, grad_fns and shapes through it,
// never an activation. Only Var handles and SavedTensors own values, so
// an intermediate's storage goes back to the pool as soon as the
// forward code drops its last handle, unless a backward saved it — a
// backward can read only what it saved.
//
// SavedTensors charge the per-rank MemoryTracker, so "activation
// memory" in this codebase is *defined* as the bytes autograd keeps
// alive for backward — the same definition the paper uses (§4:
// "'activations' refers to any tensor that is created in the forward
// pass and is necessary for gradient computation during
// back-propagation") — and with the graph holding no values, it is
// also what the arena holds for backward.
#pragma once

#include <memory>
#include <string>

#include "tensor/tensor.h"

namespace mls::ag {

class Node;

// What the graph keeps of a Var: everything backward needs but its value.
struct GradRecord {
  Tensor grad;  // undefined until first accumulation
  bool requires_grad = false;
  bool is_param = false;  // parameters are excluded from activation accounting
  std::shared_ptr<Node> grad_fn;  // null for leaves
  std::string name;               // debug / diagnostics
  Shape shape;                    // the value's shape, for grad checks

  // Adds g into grad. The first gradient is taken over when nothing
  // else holds its storage and cloned otherwise, so a grad never
  // aliases another tensor (add's {g, g}, a pass-through's grad_out).
  void accumulate(Tensor g);
};

class Var {
 public:
  Var() = default;
  explicit Var(Tensor value, bool requires_grad = false);
  // A trainable parameter: requires grad and is excluded from the
  // activation-memory accounting (the paper's definition excludes
  // "the main parameters of the model").
  static Var param(Tensor value, std::string name = {});

  bool defined() const { return impl_ != nullptr; }
  const Tensor& value() const;
  Tensor& mutable_value();
  const Tensor& grad() const;
  bool has_grad() const;
  void accumulate_grad(Tensor g);
  void zero_grad();
  bool requires_grad() const;
  bool is_param() const;
  const std::string& name() const;

  std::shared_ptr<Node> grad_fn() const;
  void set_grad_fn(std::shared_ptr<Node> fn);
  // The value-free record the graph holds.
  const std::shared_ptr<GradRecord>& record() const;

  // A new Var sharing the same tensor but cut off from the graph.
  Var detach() const;

  // Convenience accessors.
  const Shape& shape() const { return value().shape(); }
  int64_t numel() const { return value().numel(); }
  float item() const { return value().item(); }

 private:
  // Copies of a Var share one value slot (so a reference to value()
  // lives as long as any handle) and one record; the graph holds only
  // the record.
  struct Impl {
    Tensor value;
    std::shared_ptr<GradRecord> rec;
  };
  std::shared_ptr<Impl> impl_;
};

// Thread-local (= per simulated rank) autograd mode. When disabled, ops
// compute values only: no nodes, no saved tensors. Checkpoint regions
// run their first forward pass in this mode.
class GradMode {
 public:
  static bool enabled();
  static void set_enabled(bool e);
};

class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::enabled()) { GradMode::set_enabled(false); }
  ~NoGradGuard() { GradMode::set_enabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

class EnableGradGuard {
 public:
  EnableGradGuard() : prev_(GradMode::enabled()) { GradMode::set_enabled(true); }
  ~EnableGradGuard() { GradMode::set_enabled(prev_); }
  EnableGradGuard(const EnableGradGuard&) = delete;
  EnableGradGuard& operator=(const EnableGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace mls::ag
