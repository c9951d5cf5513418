// ServeReport: aggregates one serving run's completions and scheduler
// counters into the numbers bench_serve prints and BENCH_serve.json
// records — throughput, per-token and first-token latency percentiles,
// batch occupancy, and KV fragmentation on both accounting axes
// (logical reserved-vs-used waste, physical pool-arena stats).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memory/pool_allocator.h"
#include "serve/scheduler.h"

namespace mls::serve {

struct ServeReport {
  std::string label;
  // Workload shape.
  int64_t requests = 0;
  int64_t completed = 0;
  int64_t overflowed = 0;
  int64_t rejected = 0;
  int64_t timed_out = 0;
  int64_t shed = 0;
  int64_t steps = 0;
  int64_t preemptions = 0;
  int64_t pressure_preemptions = 0;
  int64_t throttled_steps = 0;
  double wall_s = 0;
  // Throughput.
  int64_t tokens_generated = 0;
  int64_t rows_processed = 0;    // prefill + decode positions
  double gen_tokens_per_s = 0;   // sampled tokens / wall
  double total_tokens_per_s = 0; // all processed positions / wall
  // Latency (seconds).
  double token_p50_s = 0, token_p99_s = 0, token_mean_s = 0;
  double first_token_p50_s = 0, first_token_p99_s = 0;
  // Batching.
  double batch_mean = 0;
  int64_t batch_max = 0;
  // KV memory.
  int64_t kv_reserved_peak_bytes = 0;  // logical
  int64_t kv_used_peak_bytes = 0;      // logical
  // Logical peak a whole-sequence cache would have reserved for the
  // same schedule (KVStats::worst_case_peak).
  int64_t kv_worst_case_peak_bytes = 0;
  double kv_waste_mean = 0;            // mean over steps
  double kv_waste_final = 0;
  int64_t kv_reserve_failures = 0;
  // Pressure-plane sizing (from the scheduler's config): the effective
  // token budget after the MLS_MEM_BUDGET_BYTES clamp, and the byte
  // ceiling itself (-1 when unset).
  int64_t kv_budget_tokens = 0;
  int64_t mem_budget_bytes = -1;
  // Rank arena (physical axis) at the end of the run.
  memory::AllocStats arena;

  // Aggregate from a finished run: the scheduler's counters, KV stats
  // and post-clamp config. `wall_s` is the driver-measured wall time of
  // the serving loop on this rank.
  static ServeReport build(const std::string& label,
                           const std::vector<Completion>& completions,
                           const ContinuousBatchScheduler& sched,
                           const memory::AllocStats& arena, double wall_s);

  std::string text() const;  // human table (README's sample report)
  std::string json() const;  // one JSON object, no trailing newline
};

// p-th percentile (0..1) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

}  // namespace mls::serve
