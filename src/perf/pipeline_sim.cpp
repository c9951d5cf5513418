#include "perf/pipeline_sim.h"

#include <vector>

#include "common/check.h"
#include "core/parallel_plan.h"
#include "perf/flops.h"

namespace mls::perf {

namespace {

constexpr double kUnknown = -1.0;

struct OpDurations {
  double layer_fwd, layer_bwd_with_recompute;
  double embed_fwd, embed_bwd;
  double head_fwd, head_bwd;
  double wire;
};

// Embedding / loss-head passes and the optimizer step.
double embedding_forward_time(const model::ModelConfig& cfg,
                              const MachineModel& mm, memory::Technique tech) {
  // Table lookup + positional add + dropout: a few sbh-sized streams.
  const double sbh_bytes = static_cast<double>(cfg.s) * cfg.b * cfg.h * 2.0;
  const double div = core::plan_for(tech.plan).sequence_sharded() ? cfg.t : 1;
  return 5.0 * sbh_bytes / div / mm.hbm_bw + mm.kernel_overhead;
}

double head_forward_time(const model::ModelConfig& cfg, const MachineModel& mm) {
  // Final layer-norm + logits GEMM + cross-entropy streams.
  const double t_logits =
      logits_flops(cfg) / cfg.t /
      (mm.peak_flops * mm.dense_gemm_eff(static_cast<double>(cfg.h) / cfg.t));
  const double ce_bytes =
      4.0 * static_cast<double>(cfg.s) * cfg.b * cfg.v / cfg.t * 3.0;
  return t_logits + ce_bytes / mm.hbm_bw + mm.kernel_overhead;
}

double head_backward_time(const model::ModelConfig& cfg,
                          const MachineModel& mm) {
  return 2.0 * head_forward_time(cfg, mm);
}

double optimizer_time(const model::ModelConfig& cfg, const MachineModel& mm) {
  // Adam touches ~28 bytes per parameter (grad, m, v, master, weight).
  return memory::params_per_rank(cfg) * 28.0 / mm.hbm_bw;
}

}  // namespace

IterationEstimate estimate_iteration_time(const model::ModelConfig& cfg,
                                          const MachineModel& mm,
                                          memory::Technique tech) {
  const int p = cfg.p;
  // A single stage has nothing to interleave.
  const int m = (p > 1) ? cfg.interleave_m : 1;
  const int n = static_cast<int>(cfg.microbatches());
  const int last = p * m - 1;
  const double layers_per_chunk =
      static_cast<double>(cfg.L) / (static_cast<double>(p) * m);

  const LayerTime lt = layer_time(cfg, mm, tech);
  OpDurations d;
  d.layer_fwd = layers_per_chunk * lt.forward;
  d.layer_bwd_with_recompute = layers_per_chunk * (lt.backward + lt.recompute);
  d.embed_fwd = embedding_forward_time(cfg, mm, tech);
  d.embed_bwd = d.embed_fwd;  // scatter-add of roughly the same traffic
  d.head_fwd = head_forward_time(cfg, mm);
  d.head_bwd = head_backward_time(cfg, mm);
  const double boundary_bytes =
      2.0 * cfg.s * cfg.b * cfg.h /
      (core::plan_for(tech.plan).sequence_sharded() ? cfg.t : 1);
  d.wire = p > 1 ? boundary_bytes / mm.ib_p2p_bw + mm.p2p_latency : 0.0;

  const pipeline::Schedule sched = (m > 1)
                                       ? pipeline::Schedule::kInterleaved1F1B
                                       : pipeline::Schedule::k1F1B;
  std::vector<std::vector<pipeline::Op>> ops;
  ops.reserve(static_cast<size_t>(p));
  size_t total_ops = 0;
  for (int r = 0; r < p; ++r) {
    ops.push_back(pipeline::build_schedule(sched, p, r, n, m));
    total_ops += ops.back().size();
  }

  auto fwd_dur = [&](int v) {
    return d.layer_fwd + (v == 0 ? d.embed_fwd : 0.0) +
           (v == last ? d.head_fwd : 0.0);
  };
  auto bwd_dur = [&](int v) {
    return d.layer_bwd_with_recompute + (v == 0 ? d.embed_bwd : 0.0) +
           (v == last ? d.head_bwd : 0.0);
  };

  // Event-driven scheduling: each rank advances through its op list; an
  // op executes once its producer has finished (finish times are final
  // on first assignment, so a single monotone pass per dependency chain
  // suffices). Rounds that make no progress indicate an unsatisfiable
  // dependency.
  const int stages = p * m;
  std::vector<double> fwd_fin(static_cast<size_t>(stages) * n, kUnknown);
  std::vector<double> bwd_fin(static_cast<size_t>(stages) * n, kUnknown);
  auto idx_of = [&](int v, int mb) {
    return static_cast<size_t>(v) * n + mb;
  };

  std::vector<size_t> next_op(static_cast<size_t>(p), 0);
  std::vector<double> tcur(static_cast<size_t>(p), 0.0);
  std::vector<double> busy(static_cast<size_t>(p), 0.0);
  size_t done = 0;
  bool progress = true;
  while (done < total_ops && progress) {
    progress = false;
    for (int r = 0; r < p; ++r) {
      auto& oplist = ops[static_cast<size_t>(r)];
      while (next_op[static_cast<size_t>(r)] < oplist.size()) {
        const auto& op = oplist[next_op[static_cast<size_t>(r)]];
        const int v = op.chunk * p + r;
        double dep = 0;
        if (op.type == pipeline::OpType::kForward) {
          if (v > 0) {
            const double df = fwd_fin[idx_of(v - 1, op.microbatch)];
            if (df == kUnknown) break;
            dep = df + d.wire;
          }
        } else {
          const double df = (v == last) ? fwd_fin[idx_of(v, op.microbatch)]
                                        : bwd_fin[idx_of(v + 1, op.microbatch)];
          if (df == kUnknown) break;
          dep = df + (v == last ? 0.0 : d.wire);
        }
        const double dur = op.type == pipeline::OpType::kForward ? fwd_dur(v)
                                                                 : bwd_dur(v);
        const double start = std::max(tcur[static_cast<size_t>(r)], dep);
        const double fin = start + dur;
        tcur[static_cast<size_t>(r)] = fin;
        busy[static_cast<size_t>(r)] += dur;
        (op.type == pipeline::OpType::kForward
             ? fwd_fin
             : bwd_fin)[idx_of(v, op.microbatch)] = fin;
        ++next_op[static_cast<size_t>(r)];
        ++done;
        progress = true;
      }
    }
  }
  MLS_CHECK_EQ(done, total_ops) << "schedule has an unsatisfiable dependency";

  IterationEstimate est;
  double max_busy = 0;
  for (int r = 0; r < p; ++r) {
    est.makespan = std::max(est.makespan, tcur[static_cast<size_t>(r)]);
    max_busy = std::max(max_busy, busy[static_cast<size_t>(r)]);
  }
  est.bubble_fraction = est.makespan > 0 ? 1.0 - max_busy / est.makespan : 0.0;
  est.seconds = est.makespan + optimizer_time(cfg, mm) + mm.iteration_overhead;
  return est;
}

double dp_iteration_seconds(const model::ModelConfig& cfg,
                            const MachineModel& mm, double base_seconds,
                            int dp) {
  if (dp <= 1) return base_seconds;
  // fp16 gradient all-reduce across data-parallel replicas over IB,
  // not overlapped with backprop (§6.3: "we do not use any overlapping
  // of gradient all-reduces with back-propagation").
  const double grad_bytes = memory::params_per_rank(cfg) * 2.0;
  const double ar = 2.0 * (dp - 1) / dp * grad_bytes / mm.dp_allreduce_bw;
  return base_seconds + ar;
}

E2eRow end_to_end(const model::ModelConfig& cfg, const MachineModel& mm,
                  memory::Technique tech) {
  const IterationEstimate est = estimate_iteration_time(cfg, mm, tech);
  E2eRow row;
  row.iteration_seconds = est.seconds;
  row.mfu = mfu(cfg, est.seconds, mm.peak_flops);
  row.hfu = hfu(cfg, tech.recompute, est.seconds, mm.peak_flops);
  return row;
}

}  // namespace mls::perf
