#include "probes.h"

#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "tensor/kernels.h"
#include "trace.h"

namespace perfbench {

namespace {

using mls::Shape;
using mls::Tensor;

constexpr int kSamples = 9;            // timed samples per probe
constexpr double kSampleFloorS = 4e-3;  // calls are batched up to this

// Median microseconds per call of fn. Calls are batched so one sample
// lasts at least kSampleFloorS; each sample is one span.
double time_call_us(const char* span, const std::function<void()>& fn) {
  fn();  // warm caches and the kernel worker pool
  int reps = 1;
  for (;;) {
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) fn();
    if (now_s() - t0 >= kSampleFloorS || reps >= (1 << 16)) break;
    reps *= 2;
  }
  std::vector<double> us;
  for (int k = 0; k < kSamples; ++k) {
    Span sp(span);
    for (int i = 0; i < reps; ++i) fn();
    us.push_back(sp.end() * 1e6 / reps);
  }
  return median(us);
}

std::vector<float> random_buffer(int64_t n, mls::Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.next_uniform() * 2.0 - 1.0);
  return v;
}

}  // namespace

void probe_kernels(const KernelShapes& s, uint64_t seed, Result* out) {
  namespace k = mls::kernels;
  mls::Rng rng(seed ^ 0x6b65726e656cull);
  const int64_t ffn = 4 * s.h / s.t;  // MLP hidden width per rank
  const int64_t att = s.nb * s.sq * s.sk;
  std::vector<float> a = random_buffer(s.rows * ffn, rng);
  std::vector<float> b = random_buffer(ffn * s.h, rng);
  std::vector<float> dy = random_buffer(s.rows * ffn, rng);
  std::vector<float> c(
      static_cast<size_t>(s.rows * std::max({ffn, 3 * s.h / s.t, s.h})));
  std::vector<float> q = random_buffer(s.nb * s.sq * s.d, rng);
  std::vector<float> kv = random_buffer(s.nb * s.sk * s.d, rng);
  std::vector<float> ctx(static_cast<size_t>(s.nb * s.sq * s.d));
  std::vector<float> scores = random_buffer(att, rng);
  std::vector<float> probs(static_cast<size_t>(att));
  std::vector<float> dprobs = random_buffer(att, rng);
  std::vector<float> dscores(static_cast<size_t>(att));
  std::vector<float> bias = random_buffer(ffn, rng);
  std::vector<float> dbias(static_cast<size_t>(ffn));
  const float alpha = 1.0f / std::sqrt(static_cast<float>(s.d));
  k::scaled_softmax(scores.data(), probs.data(), s.nb * s.sq, s.sq, s.sk, alpha,
                    true);

  struct Probe {
    const char* span;
    const char* metric;
    std::function<void()> fn;
  };
  const Probe probes[] = {
      {"tensor.gemm_qkv", "tensor.gemm_qkv_us",
       [&] { k::gemm(a.data(), b.data(), c.data(), s.rows, 3 * s.h / s.t, s.h); }},
      {"tensor.gemm_proj", "tensor.gemm_proj_us",
       [&] { k::gemm(a.data(), b.data(), c.data(), s.rows, s.h, s.h / s.t); }},
      {"tensor.gemm_fc1", "tensor.gemm_fc1_us",
       [&] { k::gemm(a.data(), b.data(), c.data(), s.rows, ffn, s.h); }},
      {"tensor.gemm_fc2", "tensor.gemm_fc2_us",
       [&] { k::gemm(a.data(), b.data(), c.data(), s.rows, s.h, ffn); }},
      {"tensor.bmm_qk", "tensor.bmm_qk_us",
       [&] {
         k::bmm(q.data(), kv.data(), scores.data(), s.nb, s.sq, s.sk, s.d,
                false, true);
       }},
      {"tensor.bmm_pv", "tensor.bmm_pv_us",
       [&] {
         k::bmm(probs.data(), kv.data(), ctx.data(), s.nb, s.sq, s.d, s.sk,
                false, false);
       }},
      {"tensor.softmax", "tensor.softmax_us",
       [&] {
         k::scaled_softmax(scores.data(), probs.data(), s.nb * s.sq, s.sq, s.sk,
                           alpha, true);
       }},
      {"tensor.softmax_grad", "tensor.softmax_grad_us",
       [&] {
         k::scaled_softmax_grad(probs.data(), dprobs.data(), dscores.data(),
                                s.nb * s.sq, s.sk, alpha);
       }},
      {"tensor.bias_gelu", "tensor.bias_gelu_us",
       [&] { k::bias_gelu(a.data(), bias.data(), c.data(), s.rows, ffn); }},
      {"tensor.bias_gelu_grad", "tensor.bias_gelu_grad_us",
       [&] {
         k::bias_gelu_grad(a.data(), bias.data(), dy.data(), c.data(),
                           dbias.data(), s.rows, ffn);
       }},
  };
  Span all("probe.kernels");
  for (const Probe& p : probes) out->metric(p.metric, time_call_us(p.span, p.fn), "us");
}

CommTimes probe_comm(mls::comm::Comm& c, const CommShapes& s) {
  Tensor ar = Tensor::full(Shape{s.ar_rows, s.ar_cols}, 1.0f);
  const Tensor ag = Tensor::full(Shape{s.ag_rows, s.ag_cols}, 1.0f);
  const Tensor rs = Tensor::full(Shape{s.rs_rows, s.rs_cols}, 1.0f);
  const auto timed = [&](const char* span, const std::function<void()>& fn) {
    fn();  // warm-up
    std::vector<double> us;
    for (int k = 0; k < 3 * kSamples; ++k) {
      c.barrier();
      Span sp(span);
      fn();
      us.push_back(sp.end() * 1e6);
    }
    return median(us);
  };
  Span all("probe.comm");
  CommTimes t;
  t.all_gather_us = timed("comm.all_gather", [&] { (void)c.all_gather(ag, s.ag_dim); });
  t.reduce_scatter_us = timed("comm.reduce_scatter", [&] { (void)c.reduce_scatter(rs, 0); });
  t.all_reduce_us = timed("comm.all_reduce", [&] { c.all_reduce(ar); });
  return t;
}

void add_layer_metrics(const LayerCounters& c, Result* out) {
  const mls::comm::TrafficStats& t0 = c.tp0;
  const mls::comm::TrafficStats& t1 = c.tp1;
  const auto per_step = [&](int64_t delta) { return static_cast<double>(delta) / c.steps; };
  const double ar = per_step(t1.all_reduce_count - t0.all_reduce_count);
  const double ag = per_step(t1.all_gather_count - t0.all_gather_count);
  const double rs = per_step(t1.reduce_scatter_count - t0.reduce_scatter_count);
  const double hits = static_cast<double>(c.a1.pool_hits - c.a0.pool_hits);
  const double misses = static_cast<double>(c.a1.pool_misses - c.a0.pool_misses);
  out->metric("comm.tp_calls",
              ar + ag + rs + per_step(t1.broadcast_count - t0.broadcast_count), "count");
  out->metric("comm.tp_bytes", per_step(t1.bytes_received - t0.bytes_received), "B");
  out->metric("comm.p2p_calls",
              per_step(c.pp1.p2p_send_count + c.pp1.p2p_recv_count -
                       c.pp0.p2p_send_count - c.pp0.p2p_recv_count),
              "count");
  out->metric("comm.p2p_bytes",
              per_step(c.pp1.p2p_bytes_sent + c.pp1.p2p_bytes_received -
                       c.pp0.p2p_bytes_sent - c.pp0.p2p_bytes_received),
              "B");
  out->metric("comm.all_gather_us", c.comm.all_gather_us, "us");
  out->metric("comm.reduce_scatter_us", c.comm.reduce_scatter_us, "us");
  out->metric("comm.all_reduce_us", c.comm.all_reduce_us, "us");
  out->metric("comm.est_ms",
              (ar * c.comm.all_reduce_us + ag * c.comm.all_gather_us +
               rs * c.comm.reduce_scatter_us) / 1e3,
              "ms");
  out->metric("memory.allocs_per_step", per_step(c.a1.allocs - c.a0.allocs), "count");
  out->metric("memory.pool_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 1.0,
              "ratio");
  out->metric("memory.pool_misses", static_cast<double>(c.pool_misses), "count");
  out->metric("memory.fragmentation", c.fragmentation, "ratio");
  out->metric("memory.in_use_peak_bytes", static_cast<double>(c.in_use_peak), "B");
}

double host_probe_ms() {
  // A dependent integer chain the compiler cannot fold or vectorize:
  // about 70 ms on the 4-core x86 host the benchmark was tuned on.
  const double t0 = now_s();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  double acc = 0;
  for (int i = 0; i < 30000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffff) * 1e-9;
  }
  const double ms = (now_s() - t0) * 1e3;
  volatile double sink = acc;  // keeps the loop alive
  (void)sink;
  return ms;
}

}  // namespace perfbench
