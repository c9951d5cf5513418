// Lint fixture (never compiled): MUST NOT fire libm-in-kernel. Comments
// may name std::exp and tanhf; so may string literals. Look-alike
// identifiers (exp_f32, std::expm1, kernels::exp) are not libm calls,
// and a deliberate, suppressed instance is allowed.
#include <cmath>

namespace mls::kernels {

inline float exp_f32(float x) { return x; }
inline float tanh_f32(float x) { return x; }

void exp(const float* x, float* y, int n) {
  for (int j = 0; j < n; ++j) y[j] = exp_f32(x[j]);
}

const char* kWhy = "std::exp would not vectorize";

double reference(double x) {
  return std::expm1(x) + std::exp(x);  // lint:allow(libm-in-kernel)
}

}  // namespace mls::kernels
