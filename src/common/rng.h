// Deterministic pseudo-random number generation.
//
// We use xoshiro256** seeded via splitmix64. Each simulated rank and
// each parameter gets its own deterministically-derived stream so that
// runs are reproducible regardless of thread interleaving — a property
// the equivalence tests (serial vs tensor-parallel) rely on.
#pragma once

#include <cstdint>
#include <vector>

namespace mls {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Derives an independent child stream; used to give each parameter /
  // dropout site its own stream keyed by a stable id.
  Rng fork(uint64_t key) const;

  uint64_t next_u64();
  // Uniform in [0, 1).
  double next_uniform();
  // Standard normal via Box–Muller.
  double next_normal();
  // Advances the stream exactly as n next_normal() calls would (the
  // same uniforms, the same cached second normal) without computing
  // the skipped normals' transcendentals — how a rank reaches its shard
  // of a weight drawn in the full matrix's element order.
  void skip_normals(int64_t n);
  // Uniform integer in [0, n).
  uint64_t next_below(uint64_t n);

  void fill_normal(float* data, int64_t n, float mean = 0.f, float stddev = 1.f);
  void fill_uniform(float* data, int64_t n, float lo = 0.f, float hi = 1.f);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mls
