#include "autograd/checkpoint.h"

#include "autograd/engine.h"
#include "autograd/node.h"

namespace mls::ag {

namespace {

class CheckpointNode : public Node {
 public:
  CheckpointNode(CheckpointFn fn, const std::vector<Var>& ins)
      : fn_(std::move(fn)) {
    saved_.reserve(ins.size());
    for (const auto& in : ins) {
      saved_.emplace_back(in.value(), !in.is_param());
      is_param_.push_back(in.is_param());
    }
  }

  const char* name() const override { return "checkpoint"; }

  // Replays the forward with autograd enabled and back-propagates the
  // rebuilt subgraph at once. The replay re-saves the region's internal
  // activations (a transient memory spike, just like real
  // recomputation); the nested backward drains it. Under a byte budget
  // fn_ can raise MemoryPressureError mid-subgraph; the half-built
  // replay is local, so a recovered run that reaches backward() again
  // simply replays from scratch.
  std::vector<Tensor> backward(const Tensor& grad_out) override {
    EnableGradGuard grad_on;
    std::vector<Var> leaves;
    leaves.reserve(saved_.size());
    for (size_t i = 0; i < saved_.size(); ++i) {
      // Re-create parameter inputs as params so the replayed subgraph
      // does not transiently charge them to the activation tracker.
      leaves.push_back(is_param_[i]
                           ? Var::param(saved_[i].get())
                           : Var(saved_[i].get(), /*requires_grad=*/true));
    }
    mls::ag::backward(fn_(leaves), grad_out);
    std::vector<Tensor> grads;
    grads.reserve(leaves.size());
    for (auto& leaf : leaves) {
      grads.push_back(leaf.has_grad() ? leaf.grad() : Tensor());
    }
    return grads;
  }

  void release_saved() override {
    for (auto& s : saved_) s.reset();
  }

 private:
  CheckpointFn fn_;
  std::vector<SavedTensor> saved_;
  std::vector<bool> is_param_;
};

}  // namespace

Var checkpoint(const CheckpointFn& fn, const std::vector<Var>& inputs) {
  bool any_requires = false;
  for (const auto& in : inputs) any_requires |= in.requires_grad();
  if (!GradMode::enabled() || !any_requires) {
    return fn(inputs);
  }

  // First forward: compute values only. Inputs are detached so no graph
  // is built and nothing inside fn is saved.
  Tensor out_value;
  {
    NoGradGuard no_grad;
    std::vector<Var> detached;
    detached.reserve(inputs.size());
    for (const auto& in : inputs) detached.push_back(in.detach());
    out_value = fn(detached).value();
  }

  auto node = std::make_shared<CheckpointNode>(fn, inputs);
  return make_output(std::move(out_value), std::move(node), inputs);
}

}  // namespace mls::ag
