#include "autograd/var.h"

#include "autograd/node.h"

namespace mls::ag {

void GradRecord::accumulate(Tensor g) {
  if (grad.defined()) {
    grad.add_(g);
  } else {
    grad = g.unique() ? std::move(g) : g.clone();
  }
}

Var::Var(Tensor value, bool requires_grad)
    : impl_(std::make_shared<Impl>(
          Impl{std::move(value), std::make_shared<GradRecord>()})) {
  impl_->rec->requires_grad = requires_grad;
  impl_->rec->shape = impl_->value.shape();
}

Var Var::param(Tensor value, std::string name) {
  Var v(std::move(value), /*requires_grad=*/true);
  v.impl_->rec->is_param = true;
  v.impl_->rec->name = std::move(name);
  return v;
}

const Tensor& Var::value() const {
  MLS_CHECK(defined()) << "value() on undefined Var";
  return impl_->value;
}

Tensor& Var::mutable_value() {
  MLS_CHECK(defined()) << "mutable_value() on undefined Var";
  return impl_->value;
}

const std::shared_ptr<GradRecord>& Var::record() const {
  MLS_CHECK(defined()) << "record() on undefined Var";
  return impl_->rec;
}

const Tensor& Var::grad() const {
  MLS_CHECK(has_grad()) << "grad() on Var without gradient"
                        << (defined() ? " (" + impl_->rec->name + ")" : "");
  return impl_->rec->grad;
}

bool Var::has_grad() const { return defined() && impl_->rec->grad.defined(); }

void Var::accumulate_grad(Tensor g) { record()->accumulate(std::move(g)); }

void Var::zero_grad() {
  if (defined()) impl_->rec->grad = Tensor();
}

bool Var::requires_grad() const { return defined() && impl_->rec->requires_grad; }

bool Var::is_param() const { return defined() && impl_->rec->is_param; }

const std::string& Var::name() const {
  static const std::string empty;
  return defined() ? impl_->rec->name : empty;
}

std::shared_ptr<Node> Var::grad_fn() const {
  return defined() ? impl_->rec->grad_fn : nullptr;
}

void Var::set_grad_fn(std::shared_ptr<Node> fn) { record()->grad_fn = std::move(fn); }

Var Var::detach() const {
  if (!defined()) return Var();
  return Var(impl_->value, /*requires_grad=*/false);
}

namespace {
bool& grad_mode_flag() {
  thread_local bool enabled = true;
  return enabled;
}
}  // namespace

bool GradMode::enabled() { return grad_mode_flag(); }

void GradMode::set_enabled(bool e) { grad_mode_flag() = e; }

}  // namespace mls::ag
