// Differentiable operations. Each op:
//  * computes its value with the raw kernels in tensor/ops.h,
//  * when grad mode is on, records a Node saving exactly the tensors
//    its backward needs — these saves define activation memory.
//
// The per-op saved set matches the paper's §4.1 accounting:
//   matmul/bmm     save their (non-parameter) inputs
//   gelu           saves its input
//   bias_gelu      saves its (pre-bias) input — same bytes as gelu
//   softmax        saves its output
//   scaled_softmax saves its output — same bytes as softmax
//   dropout        saves only its 1-byte mask
//   bias_gelu_matmul saves the pre-bias input (the GeLU output is
//                  recomputed in backward)
//   layernorm      saves its input (mean/rstd are "minor" sb buffers)
//   add/bias/scale/reshape/slice save nothing
// The attention core is one node outside this file
// (core::attention_core); its saved set is an argument: Q/K/V alone,
// Q/K/V + P + mask + P·dropout (Table 2's 5as²b/t), or Q/K/V + scores
// + mask (folded TSP's 3as²b/t).
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/var.h"
#include "tensor/ops.h"

namespace mls::ag {

// y = x @ w, optionally x @ w^T. Leading axes of x are batch axes.
Var matmul(const Var& x, const Var& w, bool trans_b = false);

// Batched matmul over [nb, m, k] tensors; both operands are saved.
Var bmm(const Var& a, const Var& b, bool trans_b = false);

Var add(const Var& a, const Var& b);
Var add_bias(const Var& x, const Var& bias);
Var scale(const Var& x, float s);
Var gelu(const Var& x);
// Fused bias + GeLU (ops::bias_gelu): one sweep in forward, one fused
// dx/dbias sweep in backward. Saves the pre-bias input instead of
// gelu's post-bias input — identical activation bytes.
Var bias_gelu(const Var& x, const Var& bias);
Var softmax(const Var& x, bool causal = false);
// Fused alpha-scale + softmax (ops::scaled_softmax): the attention
// 1/sqrt(d) scaling folded into the softmax sweep.
Var scaled_softmax(const Var& x, float alpha, bool causal = false);

// Stateless dropout (see ops::dropout_stateless). Saves the U8 mask,
// which is drawn only when a node is built (grad mode on and x needs
// grad); a no-grad forward writes y alone, with the same bits.
Var dropout(const Var& x, float p, uint64_t seed, const ops::IndexMap& map);

// Fused bias + GeLU + matmul: bias_gelu(x, bias) @ w. Saves only the
// pre-bias x; backward recomputes the GeLU output pointwise before the
// dW GEMM, so the activation it would have stored is folded away
// (the folded-TSP plan's MLP stage). Numerics are bitwise identical to
// the unfused bias_gelu + matmul chain — same kernels, same order.
Var bias_gelu_matmul(const Var& x, const Var& bias, const Var& w);

Var layernorm(const Var& x, const Var& gamma, const Var& beta,
              float eps = 1e-5f);

// Structural ops (no saved tensors).
Var reshape(const Var& x, Shape shape);
Var slice(const Var& x, int dim, int64_t start, int64_t len);

}  // namespace mls::ag
