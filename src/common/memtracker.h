// MemoryTracker: per-rank runtime accounting of activation memory.
//
// Every tensor the autograd layer saves for the backward pass is
// charged here with its *logical* byte size (fp16 activations = 2 B,
// dropout masks = 1 B, fp32 logits = 4 B — see tensor/dtype.h), and
// released when the backward pass consumes it. This makes the measured
// numbers directly comparable to the paper's formulas (§4, Table 2).
//
// Bytes are split into two classes, mirroring the paper's approximation
// in §4 ("we only consider the main contributors to the memory and
// ignore small buffers"):
//   * major — sbh-scale tensors; compared exactly against the formulas.
//   * minor — sb-scale buffers (layer-norm mean/rstd, loss scalars);
//     tracked so tests can assert they are indeed negligible.
//
// The tracker is thread_local: each simulated rank (one thread) owns an
// independent instance, exactly like per-GPU memory.
#pragma once

#include <cstdint>
#include <string>

namespace mls {

namespace memory {
struct AllocStats;
}

class MemoryTracker {
 public:
  // The calling thread's (i.e. the calling rank's) tracker.
  static MemoryTracker& instance();

  // Charges `bytes` to the major or minor class; on_release takes the
  // same bytes back from the same class.
  void on_save(int64_t bytes, bool major = true);
  void on_release(int64_t bytes, bool major = true);

  // Extra non-activation allocations worth profiling (e.g. a pipeline
  // stage's received-input buffers). Counted separately.
  void on_alloc_extra(int64_t bytes);
  void on_free_extra(int64_t bytes);

  int64_t current_bytes() const { return current_major_ + current_minor_; }
  int64_t current_major_bytes() const { return current_major_; }
  int64_t current_minor_bytes() const { return current_minor_; }
  int64_t peak_bytes() const { return peak_; }
  int64_t extra_bytes() const { return extra_; }

  // Physical axis: bytes this rank's pool arena actually holds from
  // the system (fp32 simulation storage, params and transients
  // included), next to the logical axis above (the paper's fp16/mask
  // accounting of saved activations). Benches print formula vs.
  // tracked-logical vs. pooled-physical side by side.
  int64_t physical_bytes() const;
  int64_t physical_peak_bytes() const;
  // Live pooled-buffer demand and its high-water mark. Unlike the
  // segment-level physical axis, this still moves when every request is
  // served from cache, so it isolates one phase's transient demand.
  int64_t pooled_in_use_bytes() const;
  int64_t pooled_in_use_peak_bytes() const;
  // Re-arms the physical high-water mark at the current level so one
  // phase (e.g. a single forward+backward) can be measured alone.
  void reset_physical_peak();
  // The arena's full stats/fragmentation report (diagnostics).
  std::string allocator_report() const;
  // The same numbers as a struct (memory/pool_allocator.h), so benches
  // and the serve plane read fragmentation / high-water marks directly
  // instead of parsing the text report.
  memory::AllocStats allocator_stats() const;

  // KV-cache axis: logical bytes of cached key/value entries this rank
  // holds for in-flight sequences (src/serve). Charged by the KV cache
  // when a block (paged) or a whole-sequence region (naive) is
  // reserved, released when the sequence retires — the inference
  // counterpart of the activation axis above.
  void on_kv_alloc(int64_t bytes);
  void on_kv_free(int64_t bytes);
  int64_t kv_bytes() const { return kv_; }
  int64_t kv_peak_bytes() const { return kv_peak_; }

  void reset();

 private:
  void update_peak();

  int64_t current_major_ = 0;
  int64_t current_minor_ = 0;
  int64_t peak_ = 0;
  int64_t extra_ = 0;
  int64_t kv_ = 0;
  int64_t kv_peak_ = 0;
};

}  // namespace mls
