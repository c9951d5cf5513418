#include "autograd/checkpoint.h"

#include "autograd/engine.h"
#include "autograd/node.h"

namespace mls::ag {

namespace {

class CheckpointNode : public Node {
 public:
  CheckpointNode(CheckpointFn fn, const std::vector<Var>& ins,
                 bool pure_compute)
      : fn_(std::move(fn)), pure_compute_(pure_compute) {
    saved_.reserve(ins.size());
    for (const auto& in : ins) {
      saved_.emplace_back(in.value(), !in.is_param());
      is_param_.push_back(in.is_param());
    }
  }

  const char* name() const override { return "checkpoint"; }

  // A collective-free replay may run early, inside a comm window; the
  // rebuilt subgraph is held until backward() consumes it (the same
  // one-checkpoint-deep transient spike as the serial schedule, just
  // earlier).
  bool prefetchable() const override { return pure_compute_; }
  void prefetch() override {
    if (!replayed_out_.defined()) do_replay();
  }

  std::vector<Tensor> backward(const Tensor& grad_out) override {
    EnableGradGuard grad_on;
    if (!replayed_out_.defined()) do_replay();
    Var out = std::move(replayed_out_);
    replayed_out_ = Var();
    mls::ag::backward(out, grad_out);
    std::vector<Tensor> grads;
    grads.reserve(replayed_leaves_.size());
    for (auto& leaf : replayed_leaves_) {
      grads.push_back(leaf.has_grad() ? leaf.grad() : Tensor());
    }
    replayed_leaves_.clear();
    return grads;
  }

  void release_saved() override {
    for (auto& s : saved_) s.reset();
    // Drop a prefetched replay that was never consumed (the node's
    // output received no gradient).
    replayed_out_ = Var();
    replayed_leaves_.clear();
  }

 private:
  // Replays the forward with autograd enabled. The replay re-saves the
  // region's internal activations (a transient memory spike, just like
  // real recomputation); backward() drains it.
  void do_replay() {
    EnableGradGuard grad_on;
    replayed_leaves_.clear();
    replayed_leaves_.reserve(saved_.size());
    for (size_t i = 0; i < saved_.size(); ++i) {
      // Re-create parameter inputs as params so the replayed subgraph
      // does not transiently charge them to the activation tracker.
      replayed_leaves_.push_back(
          is_param_[i] ? Var::param(saved_[i].get())
                       : Var(saved_[i].get(), /*requires_grad=*/true));
    }
    // The replay allocates the region's transient spike: under a byte
    // budget fn_ can raise MemoryPressureError mid-subgraph. Clear the
    // half-built replay state before the error escapes — the node stays
    // consistent (replayed_out_ undefined), so a recovered run that
    // reaches backward() again simply replays from scratch.
    try {
      replayed_out_ = fn_(replayed_leaves_);
    } catch (...) {
      replayed_leaves_.clear();
      replayed_out_ = Var();
      throw;
    }
  }

  CheckpointFn fn_;
  bool pure_compute_;
  std::vector<SavedTensor> saved_;
  std::vector<bool> is_param_;
  std::vector<Var> replayed_leaves_;
  Var replayed_out_;
};

}  // namespace

Var checkpoint(const CheckpointFn& fn, const std::vector<Var>& inputs,
               bool pure_compute) {
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

  auto node = std::make_shared<CheckpointNode>(fn, inputs, pure_compute);
  return make_output(std::move(out_value), std::move(node), inputs);
}

}  // namespace mls::ag
