// Lint fixture (never compiled): MUST fire libm-in-kernel four times —
// std::exp, std::tanh, expf and tanhf in a kernel epilogue each put a
// libm call in a loop that would otherwise auto-vectorize.
#include <cmath>

namespace mls::kernels {

void softmax_row(const float* in, float* out, int n, float mx) {
  for (int j = 0; j < n; ++j) out[j] = std::exp(in[j] - mx);
  for (int j = 0; j < n; ++j) out[j] = expf(in[j] - mx);
}

void gelu_row(const float* x, float* y, int n) {
  for (int j = 0; j < n; ++j) y[j] = 0.5f * x[j] * (1.0f + std::tanh(x[j]));
  for (int j = 0; j < n; ++j) y[j] = 0.5f * x[j] * (1.0f + tanhf(x[j]));
}

}  // namespace mls::kernels
