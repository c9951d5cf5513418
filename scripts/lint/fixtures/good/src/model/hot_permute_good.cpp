// Lint fixture (never compiled): must NOT fire hot-permute — a strided
// GEMM over the operand where it lies, plus a suppressed boundary case.
void q_slice_scores(const float* qkv, const float* k, float* scores) {
  kernels::gemm(qkv, k, scores, 64, 64, 32, false, true,
                kernels::Tri::kNone, 384, 384, 64);
}

Tensor odd_layout(const Tensor& x) {
  return ops::permute(x, {2, 0, 1});  // lint:allow(hot-permute)
}
