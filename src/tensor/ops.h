// Raw numeric kernels (no autograd). The autograd layer (src/autograd)
// and the parallel layers (src/core) are built on these.
//
// Conventions:
//  * All tensors are contiguous row-major float32 buffers.
//  * Activations follow Megatron-LM layout: [s, b, h] (sequence,
//    microbatch, hidden).
//  * Attention internals use [b*heads, s, d] batched layout.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace mls::ops {

// ---------------------------------------------------------------- GEMM
// C[m,n] = A op B, where A is [m,k] (or [k,m] if trans_a) and B is
// [k,n] (or [n,k] if trans_b). Leading dims of A may be multiple axes;
// they are flattened (e.g. [s,b,h] @ [h,4h] -> [s,b,4h]). With trans_a
// the flattened leading axes are the contraction dim: [s,b,h] with
// trans_a acts as [h, s*b] and the result is 2-D [h, n].
// Both run on the blocked kernel substrate (tensor/kernels.h): beta=0
// into uninitialized storage, M/N-tile parallelism on the persistent
// per-rank worker pool (MLS_KERNEL_THREADS, on by default at host
// cores / world size), MLS_KERNEL_REF=1 reference path.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

// Batched GEMM: a is [nb, m, k], b is [nb, k, n] (transposes apply to
// the trailing two axes). Returns [nb, m, n].
Tensor bmm(const Tensor& a, const Tensor& b, bool trans_a = false,
           bool trans_b = false);

// --------------------------------------------------------- elementwise
Tensor add(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
// Broadcasts bias (shape [h]) over the last dimension of x.
Tensor add_bias(const Tensor& x, const Tensor& bias);
// Sums x over all leading dimensions, keeping the last; the gradient of
// add_bias with respect to the bias.
Tensor sum_to_last_dim(const Tensor& x);

// GeLU (tanh approximation, as used by Megatron-LM).
Tensor gelu(const Tensor& x);
// dL/dx given input x and upstream gradient dy.
Tensor gelu_grad(const Tensor& x, const Tensor& dy);

// Fused bias + GeLU: gelu(x + bias) in one sweep, without
// materializing the bias-added intermediate. bias has shape [h] and
// broadcasts over the last dimension.
Tensor bias_gelu(const Tensor& x, const Tensor& bias);
struct BiasGeluGrads {
  Tensor dx;     // dy * gelu'(x + bias)
  Tensor dbias;  // dx summed over leading dims
};
BiasGeluGrads bias_gelu_grad(const Tensor& x, const Tensor& bias,
                             const Tensor& dy);

// ------------------------------------------------------------- softmax
// Softmax over the last dimension. If `causal`, positions j > i of each
// trailing [sq, sk] matrix are masked to zero probability (requires
// ndim >= 2 and is applied per trailing square block with sq rows, sk
// columns, masking k-index > q-index + (sk - sq)).
Tensor softmax_lastdim(const Tensor& x, bool causal = false);
// dL/dx given the softmax *output* y and upstream gradient dy.
Tensor softmax_lastdim_grad(const Tensor& y, const Tensor& dy);

// Fused attention-score scaling + softmax: softmax(alpha * x) over the
// last dim, with the scale folded into the max/exp sweep (no scaled
// intermediate tensor). Causal masking as in softmax_lastdim.
Tensor scaled_softmax(const Tensor& x, float alpha, bool causal = false);
// Backward given the forward *output* y: alpha * softmax_grad(y, dy).
Tensor scaled_softmax_grad(const Tensor& y, const Tensor& dy, float alpha);

// ----------------------------------------------------------- layernorm
struct LayerNormOut {
  Tensor y;
  Tensor mean;  // per-row mean, [rows]
  Tensor rstd;  // per-row 1/std, [rows]
};
// Normalizes over the last dimension; gamma/beta have shape [h].
LayerNormOut layernorm(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, float eps = 1e-5f);
struct LayerNormGrads {
  Tensor dx;
  Tensor dgamma;
  Tensor dbeta;
};
LayerNormGrads layernorm_grad(const Tensor& x, const Tensor& gamma,
                              const Tensor& mean, const Tensor& rstd,
                              const Tensor& dy);

// ------------------------------------------------------------- dropout
struct DropoutOut {
  Tensor y;
  Tensor mask;  // logical dtype U8: 0 = dropped, 1 = kept
};
// Backward of inverted dropout: dy * mask / (1 - p).
Tensor dropout_grad(const Tensor& dy, const Tensor& mask, float p);

// Maps a local (shard) element coordinate to its linear index in the
// canonical unsharded tensor: global = base + Σ coord[i] * stride[i],
// where coord is the local row-major coordinate over `dims`.
//
// This lets stateless dropout generate the *same* mask value for an
// element regardless of how the tensor is partitioned across ranks —
// the property that makes serial vs tensor/sequence-parallel runs
// bitwise comparable even with dropout enabled.
struct IndexMap {
  std::vector<int64_t> dims;     // local shard dims
  std::vector<int64_t> strides;  // strides in the *global* tensor
  int64_t base = 0;              // offset of local (0,...,0) in global

  // Identity map: the tensor is not sharded.
  static IndexMap identity(const Shape& shape);
  // Shard of `global_shape` covering [offset, offset+len) along `dim`.
  static IndexMap shard(const Shape& global_shape, int dim, int64_t offset,
                        int64_t len);
};

// Stateless dropout: the keep/drop decision for each element is a pure
// function of (seed, global element index). Replaying with the same
// seed and map reproduces the mask exactly — which is what makes
// activation recomputation (checkpoint replay) exact. The map's
// innermost global stride must be 1 (true of identity, shard and the
// attention core's maps): kernels::dropout_stateless walks rows, not
// elements.
DropoutOut dropout_stateless(const Tensor& x, float p, uint64_t seed,
                             const IndexMap& map);

// ----------------------------------------------------------- embedding
// table is [v, h]; ids are flat token indices; returns [n, h].
Tensor embedding(const Tensor& table, const std::vector<int64_t>& ids);
// Accumulates dy [n, h] into dtable [v, h] at rows ids.
void embedding_grad_accum(Tensor& dtable, const std::vector<int64_t>& ids,
                          const Tensor& dy);

// ------------------------------------------------------- cross entropy
struct CrossEntropyOut {
  float loss;      // mean negative log-likelihood
  Tensor softmax;  // [n, v], saved for backward, logical dtype F32
};
CrossEntropyOut cross_entropy(const Tensor& logits,
                              const std::vector<int64_t>& targets);
// Returns dlogits given saved softmax and targets (mean reduction).
Tensor cross_entropy_grad(const Tensor& softmax,
                          const std::vector<int64_t>& targets,
                          float dloss = 1.0f);

// ------------------------------------------------------ layout / shard
Tensor slice(const Tensor& x, int dim, int64_t start, int64_t len);
Tensor cat(const std::vector<Tensor>& xs, int dim);
std::vector<Tensor> chunk(const Tensor& x, int64_t n, int dim);
Tensor permute(const Tensor& x, const std::vector<int>& perm);

// [s, b, heads*d] -> [b*heads, s, d] (attention layout) and back.
// Specialized blocked row copies (kernels.h), not generic permute.
Tensor sbh_to_bhsd(const Tensor& x, int64_t heads);
Tensor bhsd_to_sbh(const Tensor& x, int64_t heads);

}  // namespace mls::ops
