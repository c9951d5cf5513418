#include "autograd/node.h"

namespace mls::ag {

Var make_output(Tensor value, std::shared_ptr<Node> node,
                const std::vector<Var>& inputs) {
  bool any_requires = false;
  for (const auto& in : inputs) any_requires |= in.requires_grad();
  if (!GradMode::enabled() || !any_requires || node == nullptr) {
    return Var(std::move(value), /*requires_grad=*/false);
  }
  Var out(std::move(value), /*requires_grad=*/true);
  node->inputs.reserve(inputs.size());
  for (const auto& in : inputs) node->inputs.push_back(in.record());
  node->output = out.record();
  out.set_grad_fn(std::move(node));
  return out;
}

}  // namespace mls::ag
