#include "common/rng.h"

#include <cmath>

namespace mls {
namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

Rng Rng::fork(uint64_t key) const {
  // Mix the current state with the key through splitmix64 to derive an
  // independent stream. The parent is not advanced.
  uint64_t x = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ s_[3] ^ key;
  Rng child(0);
  for (auto& s : child.s_) s = splitmix64(x);
  return child;
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_uniform() {
  // 53 high bits → double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = next_uniform();
  double u2 = next_uniform();
  while (u1 <= 1e-300) u1 = next_uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

void Rng::skip_normals(int64_t n) {
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --n;
  }
  // One Box–Muller pair per two normals: the uniforms next_normal()
  // draws, including its u1 redraw, with no log/sqrt/sin/cos.
  for (; n >= 2; n -= 2) {
    double u1 = next_uniform();
    next_u64();  // u2
    while (u1 <= 1e-300) u1 = next_uniform();
  }
  // An odd tail draws its whole pair, leaving the second normal cached
  // for the next draw.
  if (n == 1) next_normal();
}

uint64_t Rng::next_below(uint64_t n) {
  // Lemire's nearly-divisionless method would be overkill here; simple
  // modulo bias is acceptable for synthetic data (n ≪ 2^64).
  return n == 0 ? 0 : next_u64() % n;
}

void Rng::fill_normal(float* data, int64_t n, float mean, float stddev) {
  for (int64_t i = 0; i < n; ++i)
    data[i] = mean + stddev * static_cast<float>(next_normal());
}

void Rng::fill_uniform(float* data, int64_t n, float lo, float hi) {
  for (int64_t i = 0; i < n; ++i)
    data[i] = lo + (hi - lo) * static_cast<float>(next_uniform());
}

}  // namespace mls
