#include "autograd/engine.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "autograd/node.h"
#include "runtime/overlap.h"

namespace mls::ag {

namespace {

// Iterative DFS producing a reverse-topological order (every consumer
// before its producers). Recursion is avoided because deep models
// (L layers × ~20 nodes) would overflow the stack.
std::vector<Node*> reverse_topo_order(Node* root) {
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_input < f.node->inputs.size()) {
      Node* child = f.node->inputs[f.next_input++]->grad_fn.get();
      if (child != nullptr && !visited.count(child)) {
        visited.insert(child);
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  // Postorder has producers first; reverse it.
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace

void backward(const Var& root, Tensor grad_out) {
  MLS_CHECK(root.defined()) << "backward on undefined Var";
  GradRecord& root_rec = *root.record();
  if (!grad_out.defined()) {
    grad_out = Tensor::full(root_rec.shape, 1.0f, root.value().dtype());
  }
  MLS_CHECK(grad_out.shape() == root_rec.shape)
      << "grad_out shape " << grad_out.shape().str() << " vs root "
      << root_rec.shape.str();

  Node* root_fn = root_rec.grad_fn.get();
  if (root_fn == nullptr) {
    if (root_rec.requires_grad) root_rec.accumulate(std::move(grad_out));
    return;
  }

  // Seed the root's output gradient.
  root_rec.grad = Tensor();
  root_rec.accumulate(std::move(grad_out));

  // Overlapped execution (opt-in via an installed OverlapScheduler):
  // prefetchable nodes are registered in tape order, and each
  // async-capable node's collective is launched nonblocking with the
  // front node's prefetch run in the window before waiting. A re-entrant
  // backward (a checkpoint replay) pushes a nested scope, so its nodes
  // never touch the enclosing backward's prefetch queue.
  runtime::OverlapScheduler* sched = runtime::OverlapScheduler::current();
  const std::vector<Node*> order = reverse_topo_order(root_fn);
  struct ScopeGuard {
    runtime::OverlapScheduler* s;
    explicit ScopeGuard(runtime::OverlapScheduler* s) : s(s) {
      if (s) s->begin_scope();
    }
    ~ScopeGuard() {
      if (s) s->end_scope();
    }
  } scope(sched);
  if (sched) {
    for (Node* node : order) {
      if (node->prefetchable()) {
        sched->add_prefetch(node, [node] { node->prefetch(); });
      }
    }
  }

  for (Node* node : order) {
    if (sched) sched->node_reached(node);
    auto out_impl = node->output.lock();
    MLS_CHECK(out_impl != nullptr)
        << "node " << node->name() << " output died before backward";
    if (!out_impl->grad.defined()) {
      // No gradient flowed to this node's output (e.g. a branch whose
      // consumer produced no grad); skip it.
      node->release_saved();
      continue;
    }
    Tensor out_grad = out_impl->grad;
    // Free the intermediate gradient now unless this is also a leaf the
    // user may want to read (only params / explicit leaves keep grads).
    if (!out_impl->is_param) out_impl->grad = Tensor();

    std::vector<Tensor> in_grads;
    if (sched && node->has_async_backward()) {
      node->launch_backward(out_grad);
      sched->on_comm_launch();
      in_grads = node->finish_backward(out_grad);
    } else {
      in_grads = node->backward(out_grad);
    }
    // Drop this handle so a gradient passed straight through (or the
    // last of an aliased pair) can be taken over by its input.
    out_grad = Tensor();
    MLS_CHECK_EQ(in_grads.size(), node->inputs.size())
        << "node " << node->name() << " returned wrong grad count";
    for (size_t i = 0; i < in_grads.size(); ++i) {
      GradRecord* in = node->inputs[i].get();
      if (!in_grads[i].defined()) continue;
      if (!in->requires_grad && in->grad_fn == nullptr) continue;
      MLS_CHECK(in_grads[i].shape() == in->shape)
          << "node " << node->name() << " grad " << i << " shape "
          << in_grads[i].shape().str() << " vs input " << in->shape.str();
      in->accumulate(std::move(in_grads[i]));
    }
    node->release_saved();
  }
}

}  // namespace mls::ag
