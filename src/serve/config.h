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
  // Per-rank KV budget in token positions; the pool holds
  // floor(kv_budget_tokens / block_tokens) blocks.
  int64_t kv_budget_tokens = 4096;
  // Max sequences decoded per step (batch width ceiling).
  int64_t max_batch = 32;
  // Not knobs. `paged` selected between the block table and a naive
  // whole-sequence cache, which was deleted (KVStats keeps its
  // reservation as a counterfactual); `overlap` selected a split-batch
  // overlapped decode, deleted because it lost to the serial decode
  // (EXPERIMENTS.md). validate() rejects paged = false and overlap =
  // true. Both fields remain only because the benchmark harness
  // (perfbench/serve.cpp) still assigns them; the change that drops
  // those lines deletes them.
  bool paged = true;
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
