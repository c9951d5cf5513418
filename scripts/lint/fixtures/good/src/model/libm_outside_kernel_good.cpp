// Lint fixture (never compiled): MUST NOT fire libm-in-kernel — the rule
// covers the kernel library only; sampling code may call libm.
#include <cmath>

float sample_weight(float logit, float temperature) {
  return std::exp(logit / temperature) + std::tanh(logit) + expf(logit);
}
