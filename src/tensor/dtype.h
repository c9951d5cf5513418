// Logical data types.
//
// The simulator computes every float tensor in float32 for exactness
// (the paper's techniques are mathematically invariant transformations,
// and our equivalence tests rely on near-bitwise reproducibility). Each
// tensor additionally carries a *logical* dtype that describes what the
// tensor would be stored as on a real mixed-precision training system:
//
//   F16 (2 bytes)  — activations / parameters (paper §4: "network and
//                    activations are stored in a 16-bit floating point
//                    format ... each element requires 2 bytes")
//   U8  (1 byte)   — dropout masks ("dropout masks ... only require a
//                    single byte per element")
//   F32 (4 bytes)  — logits for the cross-entropy loss ("logits which
//                    are calculated in 32-bit floating point")
//
// The logical dtype is what the activation-memory tracker charges, so
// measured bytes can be compared exactly against the paper's formulas.
// It also picks the physical storage (storage_size): F16 and F32 are
// fp32-backed, while a U8 mask is real bytes, 1 per element, as charged.
#pragma once

#include <cstdint>

namespace mls {

enum class Dtype : uint8_t { F32, F16, U8 };

constexpr int64_t byte_size(Dtype d) {
  switch (d) {
    case Dtype::F32: return 4;
    case Dtype::F16: return 2;
    case Dtype::U8: return 1;
  }
  return 0;
}

// Bytes one element occupies in Storage (not what is charged: that is
// byte_size). Only U8 differs from the fp32 simulation storage.
constexpr int64_t storage_size(Dtype d) { return d == Dtype::U8 ? 1 : 4; }

constexpr const char* dtype_name(Dtype d) {
  switch (d) {
    case Dtype::F32: return "f32";
    case Dtype::F16: return "f16";
    case Dtype::U8: return "u8";
  }
  return "?";
}

}  // namespace mls
