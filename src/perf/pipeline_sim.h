// End-to-end iteration-time estimation (Table 5): an event-driven
// simulation of the pipeline schedule, with per-op durations from the
// layer-time model and p2p wire time between stages.
#pragma once

#include "perf/layer_time.h"
#include "pipeline/schedule.h"

namespace mls::perf {

struct IterationEstimate {
  double seconds = 0;          // full iteration incl. optimizer step
  double makespan = 0;         // schedule critical path
  double bubble_fraction = 0;  // idle fraction of the busiest rank
};

// Simulates one training iteration of `cfg` in the Table-2 cell `tech`.
// cfg's p and interleave_m select 1F1B or interleaved 1F1B (never GPipe).
IterationEstimate estimate_iteration_time(const model::ModelConfig& cfg,
                                          const MachineModel& mm,
                                          memory::Technique tech);

// §6.3's data-parallelism note: scaling to `dp`-way data parallelism
// adds an (un-overlapped) gradient all-reduce over InfiniBand.
double dp_iteration_seconds(const model::ModelConfig& cfg,
                            const MachineModel& mm, double base_seconds,
                            int dp);

struct E2eRow {
  double iteration_seconds;
  double mfu;  // model FLOPs utilization
  double hfu;  // hardware FLOPs utilization
};

// One Table 5 row: iteration time + MFU/HFU for the cell `tech`.
E2eRow end_to_end(const model::ModelConfig& cfg, const MachineModel& mm,
                  memory::Technique tech);

}  // namespace mls::perf
