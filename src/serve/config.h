// Serving-plane configuration.
//
// The fields size the per-rank KV budget and the continuous-batching
// scheduler. Callers set them directly (bench_serve, perfbench, the
// tests); no environment variable reads them. DESIGN.md §11 describes
// how they interact.
#pragma once

#include <cstdint>

namespace mls::serve {

struct ServeConfig {
  // Tokens per KV block (the paging granule). Every block stores this
  // many token positions for ALL layers and this rank's heads.
  int64_t block_tokens = 16;
  // Per-rank KV budget in token positions; the paged pool holds
  // floor(kv_budget_tokens / block_tokens) blocks, the naive baseline
  // the same number of bytes.
  int64_t kv_budget_tokens = 4096;
  // Max sequences decoded per step (batch width ceiling).
  int64_t max_batch = 32;
  // Paged block-table cache (default) vs naive whole-sequence
  // reservations — the bench baseline.
  bool paged = true;
  // Not a knob: the split-batch overlapped decode it selected was
  // deleted (it lost to the serial decode; EXPERIMENTS.md), and
  // validate() rejects true. The field remains only because the
  // benchmark harness (perfbench/serve.cpp) still assigns false; the
  // change that drops that line deletes it.
  bool overlap = false;
  // ---- memory-pressure plane (DESIGN.md §14) -----------------------
  // KV-occupancy watermarks (fraction of the pool reserved). At or
  // above soft, admission pauses (queued requests wait); above hard,
  // the scheduler preempts latest-admitted until back under. Defaults
  // of 1.0 leave both off — the pre-pressure-plane behavior.
  double soft_pct = 1.0;
  double hard_pct = 1.0;
  // Deterministic load shedding: queued requests beyond this depth are
  // retired newest-first as kShed instead of waiting forever. < 0 (the
  // default) leaves the queue unbounded.
  int64_t max_queue = -1;
  // Byte ceiling for the KV pool: when set, the effective token budget
  // is clamped so the pool's logical KV bytes can never exceed it
  // (floored at one block).
  int64_t mem_budget_bytes = -1;

  void validate() const;
};

}  // namespace mls::serve
