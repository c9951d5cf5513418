#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include "tensor/kernels.h"

namespace mls::ops {

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  MLS_CHECK_GE(a.ndim(), 2);
  MLS_CHECK_EQ(b.ndim(), 2);
  // Flatten leading axes of A; with trans_a they form the contraction
  // dim of the flattened-2-D lhs.
  int64_t m = 1;
  for (int i = 0; i + 1 < a.ndim(); ++i) m *= a.dim(i);
  int64_t ka = a.dim(-1);
  if (trans_a) std::swap(m, ka);
  const int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const int64_t n = trans_b ? b.dim(0) : b.dim(1);
  MLS_CHECK_EQ(ka, kb) << "matmul inner dims " << a.shape().str() << " x "
                       << b.shape().str();

  std::vector<int64_t> out_dims;
  if (trans_a) {
    out_dims = {m, n};
  } else {
    for (int i = 0; i + 1 < a.ndim(); ++i) out_dims.push_back(a.dim(i));
    out_dims.push_back(n);
  }
  // beta=0 kernel: every element of C is written, so no zeros() memset.
  Tensor c = Tensor::empty(Shape(out_dims), a.dtype());
  kernels::gemm(a.data(), b.data(), c.data(), m, n, ka, trans_a, trans_b);
  return c;
}

Tensor bmm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  MLS_CHECK_EQ(a.ndim(), 3);
  MLS_CHECK_EQ(b.ndim(), 3);
  MLS_CHECK_EQ(a.dim(0), b.dim(0)) << "bmm batch dims";
  const int64_t nb = a.dim(0);
  int64_t m = trans_a ? a.dim(2) : a.dim(1);
  int64_t k = trans_a ? a.dim(1) : a.dim(2);
  const int64_t kb = trans_b ? b.dim(2) : b.dim(1);
  const int64_t n = trans_b ? b.dim(1) : b.dim(2);
  MLS_CHECK_EQ(k, kb) << "bmm inner dims " << a.shape().str() << " x "
                      << b.shape().str();
  Tensor c = Tensor::empty(Shape{{nb, m, n}}, a.dtype());
  kernels::bmm(a.data(), b.data(), c.data(), nb, m, n, k, trans_a, trans_b);
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a.clone();
  c.add_(b);
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a.clone();
  c.mul_(s);
  return c;
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  MLS_CHECK_EQ(bias.ndim(), 1);
  const int64_t h = x.dim(-1);
  MLS_CHECK_EQ(bias.dim(0), h);
  Tensor y = x.clone();
  float* p = y.data();
  const float* bp = bias.data();
  const int64_t rows = x.numel() / h;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t j = 0; j < h; ++j) p[r * h + j] += bp[j];
  return y;
}

Tensor sum_to_last_dim(const Tensor& x) {
  const int64_t h = x.dim(-1);
  Tensor out = Tensor::zeros(Shape{{h}}, Dtype::F32);
  float* op = out.data();
  const float* p = x.data();
  const int64_t rows = x.numel() / h;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t j = 0; j < h; ++j) op[j] += p[r * h + j];
  return out;
}

Tensor gelu(const Tensor& x) {
  Tensor y = Tensor::empty(x.shape(), x.dtype());
  kernels::gelu(x.data(), y.data(), x.numel());
  return y;
}

Tensor gelu_grad(const Tensor& x, const Tensor& dy) {
  MLS_CHECK(x.shape() == dy.shape());
  Tensor dx = Tensor::empty(x.shape(), x.dtype());
  kernels::gelu_grad(x.data(), dy.data(), dx.data(), x.numel());
  return dx;
}

Tensor bias_gelu(const Tensor& x, const Tensor& bias) {
  MLS_CHECK_EQ(bias.ndim(), 1);
  const int64_t h = x.dim(-1);
  MLS_CHECK_EQ(bias.dim(0), h);
  Tensor y = Tensor::empty(x.shape(), x.dtype());
  kernels::bias_gelu(x.data(), bias.data(), y.data(), x.numel() / h, h);
  return y;
}

BiasGeluGrads bias_gelu_grad(const Tensor& x, const Tensor& bias,
                             const Tensor& dy) {
  MLS_CHECK(x.shape() == dy.shape());
  const int64_t h = x.dim(-1);
  MLS_CHECK_EQ(bias.numel(), h);
  BiasGeluGrads g;
  g.dx = Tensor::empty(x.shape(), x.dtype());
  g.dbias = Tensor::empty(Shape{{h}}, Dtype::F32);
  kernels::bias_gelu_grad(x.data(), bias.data(), dy.data(), g.dx.data(),
                          g.dbias.data(), x.numel() / h, h);
  return g;
}

Tensor softmax_lastdim(const Tensor& x, bool causal) {
  return scaled_softmax(x, 1.0f, causal);
}

Tensor softmax_lastdim_grad(const Tensor& y, const Tensor& dy) {
  return scaled_softmax_grad(y, dy, 1.0f);
}

Tensor scaled_softmax(const Tensor& x, float alpha, bool causal) {
  MLS_CHECK_GE(x.ndim(), 1);
  const int64_t sk = x.dim(-1);
  const int64_t sq = causal ? x.dim(-2) : 1;
  Tensor y = Tensor::empty(x.shape(), x.dtype());
  kernels::scaled_softmax(x.data(), y.data(), x.numel() / sk, sq, sk, alpha,
                          causal);
  return y;
}

Tensor scaled_softmax_grad(const Tensor& y, const Tensor& dy, float alpha) {
  MLS_CHECK(y.shape() == dy.shape());
  const int64_t n = y.dim(-1);
  Tensor dx = Tensor::empty(y.shape(), y.dtype());
  kernels::scaled_softmax_grad(y.data(), dy.data(), dx.data(), y.numel() / n,
                               n, alpha);
  return dx;
}

LayerNormOut layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                       float eps) {
  const int64_t h = x.dim(-1);
  MLS_CHECK_EQ(gamma.numel(), h);
  MLS_CHECK_EQ(beta.numel(), h);
  const int64_t rows = x.numel() / h;
  LayerNormOut out;
  out.y = Tensor::empty(x.shape(), x.dtype());
  out.mean = Tensor::empty(Shape{{rows}}, Dtype::F32);
  out.rstd = Tensor::empty(Shape{{rows}}, Dtype::F32);
  const float* xp = x.data();
  const float* gp = gamma.data();
  const float* bp = beta.data();
  float* yp = out.y.data();
  float* mp = out.mean.data();
  float* rp = out.rstd.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = xp + r * h;
    double mean = 0.0;
    for (int64_t j = 0; j < h; ++j) mean += xr[j];
    mean /= static_cast<double>(h);
    double var = 0.0;
    for (int64_t j = 0; j < h; ++j) {
      const double d = xr[j] - mean;
      var += d * d;
    }
    var /= static_cast<double>(h);
    const float rstd = static_cast<float>(1.0 / std::sqrt(var + eps));
    mp[r] = static_cast<float>(mean);
    rp[r] = rstd;
    float* yr = yp + r * h;
    for (int64_t j = 0; j < h; ++j)
      yr[j] = (xr[j] - static_cast<float>(mean)) * rstd * gp[j] + bp[j];
  }
  return out;
}

LayerNormGrads layernorm_grad(const Tensor& x, const Tensor& gamma,
                              const Tensor& mean, const Tensor& rstd,
                              const Tensor& dy) {
  const int64_t h = x.dim(-1);
  const int64_t rows = x.numel() / h;
  LayerNormGrads g;
  g.dx = Tensor::empty(x.shape(), x.dtype());
  g.dgamma = Tensor::zeros(Shape{{h}}, Dtype::F32);
  g.dbeta = Tensor::zeros(Shape{{h}}, Dtype::F32);
  const float* xp = x.data();
  const float* gp = gamma.data();
  const float* mp = mean.data();
  const float* rp = rstd.data();
  const float* dyp = dy.data();
  float* dxp = g.dx.data();
  float* dgp = g.dgamma.data();
  float* dbp = g.dbeta.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = xp + r * h;
    const float* dyr = dyp + r * h;
    float* dxr = dxp + r * h;
    const float m = mp[r];
    const float rs = rp[r];
    double sum_dy_g = 0.0, sum_dy_g_xhat = 0.0;
    for (int64_t j = 0; j < h; ++j) {
      const float xhat = (xr[j] - m) * rs;
      const float dyg = dyr[j] * gp[j];
      sum_dy_g += dyg;
      sum_dy_g_xhat += dyg * xhat;
      dgp[j] += dyr[j] * xhat;
      dbp[j] += dyr[j];
    }
    const float c1 = static_cast<float>(sum_dy_g / h);
    const float c2 = static_cast<float>(sum_dy_g_xhat / h);
    for (int64_t j = 0; j < h; ++j) {
      const float xhat = (xr[j] - m) * rs;
      dxr[j] = rs * (dyr[j] * gp[j] - c1 - xhat * c2);
    }
  }
  return g;
}

DropoutOut dropout(const Tensor& x, float p, Rng& rng) {
  MLS_CHECK(p >= 0.f && p < 1.f) << "dropout p=" << p;
  DropoutOut out;
  out.y = Tensor::empty(x.shape(), x.dtype());
  out.mask = Tensor::empty(x.shape(), Dtype::U8);
  const float inv_keep = 1.0f / (1.0f - p);
  const float* xp = x.data();
  float* yp = out.y.data();
  float* mp = out.mask.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) {
    const bool keep = (p == 0.0f) || (rng.next_uniform() >= p);
    mp[i] = keep ? 1.0f : 0.0f;
    yp[i] = keep ? xp[i] * inv_keep : 0.0f;
  }
  return out;
}

IndexMap IndexMap::identity(const Shape& shape) {
  IndexMap m;
  m.dims = shape.dims();
  m.strides = shape.strides();
  m.base = 0;
  return m;
}

IndexMap IndexMap::shard(const Shape& global_shape, int dim, int64_t offset,
                         int64_t len) {
  dim = global_shape.normalize_axis(dim);
  MLS_CHECK_LE(offset + len, global_shape.dim(dim));
  IndexMap m;
  m.dims = global_shape.dims();
  m.dims[static_cast<size_t>(dim)] = len;
  m.strides = global_shape.strides();
  m.base = offset * m.strides[static_cast<size_t>(dim)];
  return m;
}

namespace {

// splitmix64 finalizer: a high-quality stateless hash of a 64-bit key.
uint64_t hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

DropoutOut dropout_stateless(const Tensor& x, float p, uint64_t seed,
                             const IndexMap& map) {
  MLS_CHECK(p >= 0.f && p < 1.f) << "dropout p=" << p;
  int64_t map_numel = 1;
  for (int64_t d : map.dims) map_numel *= d;
  MLS_CHECK_EQ(map_numel, x.numel())
      << "IndexMap dims do not cover tensor " << x.shape().str();
  DropoutOut out;
  out.y = Tensor::empty(x.shape(), x.dtype());
  out.mask = Tensor::empty(x.shape(), Dtype::U8);
  const float inv_keep = 1.0f / (1.0f - p);
  // keep iff hash(seed ^ gidx) / 2^64 >= p.
  const uint64_t threshold =
      static_cast<uint64_t>(p * 18446744073709551615.0);  // p * (2^64 - 1)
  const float* xp = x.data();
  float* yp = out.y.data();
  float* mp = out.mask.data();
  const int nd = static_cast<int>(map.dims.size());
  std::vector<int64_t> coord(static_cast<size_t>(nd), 0);
  int64_t gidx = map.base;
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) {
    const bool keep =
        (p == 0.0f) || (hash64(seed ^ static_cast<uint64_t>(gidx)) >= threshold);
    mp[i] = keep ? 1.0f : 0.0f;
    yp[i] = keep ? xp[i] * inv_keep : 0.0f;
    // Advance the local coordinate and the corresponding global index.
    for (int d = nd - 1; d >= 0; --d) {
      gidx += map.strides[static_cast<size_t>(d)];
      if (++coord[static_cast<size_t>(d)] < map.dims[static_cast<size_t>(d)]) break;
      gidx -= map.strides[static_cast<size_t>(d)] * map.dims[static_cast<size_t>(d)];
      coord[static_cast<size_t>(d)] = 0;
    }
  }
  return out;
}

Tensor dropout_grad(const Tensor& dy, const Tensor& mask, float p) {
  MLS_CHECK(dy.shape() == mask.shape());
  Tensor dx = Tensor::empty(dy.shape(), dy.dtype());
  const float inv_keep = 1.0f / (1.0f - p);
  const float* gp = dy.data();
  const float* mp = mask.data();
  float* dp = dx.data();
  const int64_t n = dy.numel();
  for (int64_t i = 0; i < n; ++i) dp[i] = gp[i] * mp[i] * inv_keep;
  return dx;
}

Tensor embedding(const Tensor& table, const std::vector<int64_t>& ids) {
  MLS_CHECK_EQ(table.ndim(), 2);
  const int64_t v = table.dim(0);
  const int64_t h = table.dim(1);
  const int64_t n = static_cast<int64_t>(ids.size());
  Tensor out = Tensor::empty(Shape{{n, h}}, table.dtype());
  const float* tp = table.data();
  float* op = out.data();
  for (int64_t i = 0; i < n; ++i) {
    MLS_CHECK(ids[i] >= 0 && ids[i] < v) << "token id " << ids[i] << " vs vocab " << v;
    std::memcpy(op + i * h, tp + ids[i] * h, sizeof(float) * h);
  }
  return out;
}

void embedding_grad_accum(Tensor& dtable, const std::vector<int64_t>& ids,
                          const Tensor& dy) {
  const int64_t h = dtable.dim(1);
  MLS_CHECK_EQ(dy.numel(), static_cast<int64_t>(ids.size()) * h);
  float* tp = dtable.data();
  const float* gp = dy.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    float* row = tp + ids[i] * h;
    const float* grow = gp + static_cast<int64_t>(i) * h;
    for (int64_t j = 0; j < h; ++j) row[j] += grow[j];
  }
}

CrossEntropyOut cross_entropy(const Tensor& logits,
                              const std::vector<int64_t>& targets) {
  MLS_CHECK_EQ(logits.ndim(), 2);
  const int64_t n = logits.dim(0);
  const int64_t v = logits.dim(1);
  MLS_CHECK_EQ(n, static_cast<int64_t>(targets.size()));
  CrossEntropyOut out;
  out.softmax = softmax_lastdim(logits.as_dtype(Dtype::F32));
  const float* sp = out.softmax.data();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    MLS_CHECK(targets[i] >= 0 && targets[i] < v);
    loss -= std::log(std::max(sp[i * v + targets[i]], 1e-20f));
  }
  out.loss = static_cast<float>(loss / static_cast<double>(n));
  return out;
}

Tensor cross_entropy_grad(const Tensor& softmax,
                          const std::vector<int64_t>& targets, float dloss) {
  const int64_t n = softmax.dim(0);
  const int64_t v = softmax.dim(1);
  Tensor dx = softmax.clone();
  float* dp = dx.data();
  const float s = dloss / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    dp[i * v + targets[i]] -= 1.0f;
  }
  dx.mul_(s);
  return dx;
}

Tensor slice(const Tensor& x, int dim, int64_t start, int64_t len) {
  dim = x.shape().normalize_axis(dim);
  MLS_CHECK(start >= 0 && start + len <= x.dim(dim))
      << "slice [" << start << ", " << start + len << ") of " << x.shape().str()
      << " dim " << dim;
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < dim; ++i) outer *= x.dim(i);
  for (int i = dim + 1; i < x.ndim(); ++i) inner *= x.dim(i);
  Tensor out = Tensor::empty(x.shape().with_dim(dim, len), x.dtype());
  const float* xp = x.data();
  float* op = out.data();
  const int64_t d = x.dim(dim);
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(op + o * len * inner, xp + (o * d + start) * inner,
                sizeof(float) * len * inner);
  }
  return out;
}

Tensor cat(const std::vector<Tensor>& xs, int dim) {
  MLS_CHECK(!xs.empty());
  dim = xs[0].shape().normalize_axis(dim);
  int64_t total = 0;
  for (const auto& x : xs) {
    MLS_CHECK_EQ(x.ndim(), xs[0].ndim());
    total += x.dim(dim);
  }
  Tensor out = Tensor::empty(xs[0].shape().with_dim(dim, total), xs[0].dtype());
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < dim; ++i) outer *= xs[0].dim(i);
  for (int i = dim + 1; i < xs[0].ndim(); ++i) inner *= xs[0].dim(i);
  float* op = out.data();
  int64_t offset = 0;
  for (const auto& x : xs) {
    const int64_t d = x.dim(dim);
    const float* xp = x.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(op + (o * total + offset) * inner, xp + o * d * inner,
                  sizeof(float) * d * inner);
    }
    offset += d;
  }
  return out;
}

std::vector<Tensor> chunk(const Tensor& x, int64_t n, int dim) {
  dim = x.shape().normalize_axis(dim);
  MLS_CHECK_EQ(x.dim(dim) % n, 0)
      << "chunk " << x.shape().str() << " into " << n << " along " << dim;
  const int64_t len = x.dim(dim) / n;
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out.push_back(slice(x, dim, i * len, len));
  return out;
}

Tensor permute(const Tensor& x, const std::vector<int>& perm) {
  MLS_CHECK_EQ(static_cast<int>(perm.size()), x.ndim());
  std::vector<int64_t> out_dims(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) out_dims[i] = x.dim(perm[i]);
  Tensor out = Tensor::empty(Shape(out_dims), x.dtype());
  const auto in_strides = x.shape().strides();
  const auto out_strides = out.shape().strides();
  const float* xp = x.data();
  float* op = out.data();
  const int64_t n = x.numel();
  const int nd = x.ndim();
  std::vector<int64_t> idx(static_cast<size_t>(nd), 0);
  for (int64_t flat = 0; flat < n; ++flat) {
    // idx holds the output coordinate; map back to input offset.
    int64_t in_off = 0;
    for (int i = 0; i < nd; ++i)
      in_off += idx[static_cast<size_t>(i)] * in_strides[static_cast<size_t>(perm[i])];
    op[flat] = xp[in_off];
    // Increment output coordinate (row-major).
    for (int i = nd - 1; i >= 0; --i) {
      if (++idx[static_cast<size_t>(i)] < out_dims[static_cast<size_t>(i)]) break;
      idx[static_cast<size_t>(i)] = 0;
    }
  }
  (void)out_strides;
  return out;
}

Tensor sbh_to_bhsd(const Tensor& x, int64_t heads) {
  MLS_CHECK_EQ(x.ndim(), 3);
  const int64_t s = x.dim(0), b = x.dim(1), hp = x.dim(2);
  MLS_CHECK_EQ(hp % heads, 0);
  const int64_t d = hp / heads;
  Tensor y = Tensor::empty(Shape{{b * heads, s, d}}, x.dtype());
  kernels::sbh_to_bhsd(x.data(), y.data(), s, b, heads, d);
  return y;
}

Tensor bhsd_to_sbh(const Tensor& x, int64_t heads) {
  MLS_CHECK_EQ(x.ndim(), 3);
  const int64_t bh = x.dim(0), s = x.dim(1), d = x.dim(2);
  MLS_CHECK_EQ(bh % heads, 0);
  const int64_t b = bh / heads;
  Tensor y = Tensor::empty(Shape{{s, b, heads * d}}, x.dtype());
  kernels::bhsd_to_sbh(x.data(), y.data(), s, b, heads, d);
  return y;
}

}  // namespace mls::ops
