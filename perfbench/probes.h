// Standalone per-layer probes: kernels and collectives timed at a
// workload's own shapes and message sizes, plus the host-drift loop.
#pragma once

#include <cstdint>

#include "bench.h"
#include "comm/comm.h"
#include "memory/pool_allocator.h"

namespace perfbench {

// The kernel shapes one rank of a workload runs, per transformer layer.
struct KernelShapes {
  int64_t rows;   // GEMM M: token rows per rank (s*b, or decode batch)
  int64_t h;      // hidden size
  int64_t t;      // tensor-parallel size
  int64_t nb;     // attention batch: b * heads per rank (decode: rows * heads)
  int64_t sq;     // query positions per attention problem
  int64_t sk;     // key positions per attention problem
  int64_t d;      // head dimension
};

// Times the ten tensor.* kernels (gemm_qkv/proj/fc1/fc2, bmm_qk/pv,
// softmax(+grad), bias_gelu(+grad)) on the calling thread with its
// configured kernel threads; adds one "tensor.<op>_us" metric each
// (median microseconds per call).
void probe_kernels(const KernelShapes& s, uint64_t seed, Result* out);

// Collective message sizes of a workload, as [rows, cols] float tensors.
struct CommShapes {
  int64_t ar_rows, ar_cols;  // all_reduce
  int64_t ag_rows, ag_cols;  // all_gather input shard
  int ag_dim;                // all_gather concatenation dim
  int64_t rs_rows, rs_cols;  // reduce_scatter input (split along dim 0)
};

struct CommTimes {
  double all_gather_us = 0, reduce_scatter_us = 0, all_reduce_us = 0;
};

// Collective over `c`: every rank of it must call. Each op runs from a
// barrier-aligned start; returns this rank's median microseconds.
CommTimes probe_comm(mls::comm::Comm& c, const CommShapes& s);

// Counters a workload read around its timed phase (rank 0 unless
// noted), for the comm.* and memory.* metrics every workload reports.
struct LayerCounters {
  double steps = 0;  // timed steps the deltas span
  mls::comm::TrafficStats tp0, tp1;  // tensor-parallel group
  mls::comm::TrafficStats pp0, pp1;  // pipeline group; zero without one
  mls::memory::AllocStats a0, a1;
  int64_t pool_misses = 0;  // summed over ranks
  int64_t in_use_peak = 0;  // highest of any rank
  double fragmentation = 0;
  CommTimes comm;
};

// Per-step traffic and allocator deltas, the standalone collective
// times and comm.est_ms (per-step calls x microseconds per call).
void add_layer_metrics(const LayerCounters& c, Result* out);

// A fixed scalar loop in the benchmark's own code, in milliseconds. The
// program cannot move it, so it tells host drift from program change.
double host_probe_ms();

}  // namespace perfbench
