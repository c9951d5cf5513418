#include "perf/layer_time.h"

#include "core/parallel_plan.h"
#include "perf/flops.h"

namespace mls::perf {

namespace {

double all_reduce_time(const MachineModel& mm, double bytes, int t) {
  if (t <= 1) return 0;
  return 2.0 * (t - 1) / t * bytes / mm.nvlink_bus_bw + mm.collective_latency;
}

double rs_or_ag_time(const MachineModel& mm, double bytes, int t) {
  if (t <= 1) return 0;
  return (static_cast<double>(t - 1) / t * bytes / mm.nvlink_bus_bw +
          mm.collective_latency) *
         mm.rs_ag_penalty;
}

// Elementwise (HBM-bound) traffic of one layer's forward pass, split
// into the outer region (layer-norms, residuals, post-block dropouts —
// replicated under tp, sequence-sharded under tp_sp and folded TSP) and
// the inner region (GeLU, attention softmax/dropout — always sharded by t).
struct ElementwiseBytes {
  double outer;  // divided by t iff the plan is sequence-sharded
  double inner;  // already per-rank
};

ElementwiseBytes forward_elementwise_bytes(const model::ModelConfig& cfg) {
  const double sbh = static_cast<double>(cfg.s) * cfg.b * cfg.h;
  const double core =
      static_cast<double>(cfg.a) * cfg.s * cfg.s * cfg.b / cfg.t;
  ElementwiseBytes e;
  // Outer (bytes per sbh element): two layer-norms (read 2B + write 2B
  // each), two dropouts (read 2 + write 2 + mask write 1), two
  // residual adds (read 2+2, write 2).
  e.outer = sbh * (2 * 4.0 + 2 * 5.0 + 2 * 6.0);
  // Inner: GeLU on s·b·4h/t (read 2 + write 2), Q scaling on sbh/t,
  // softmax (r/w fp16) and softmax-dropout (r/w + mask) on the core.
  e.inner = sbh / cfg.t * (4.0 * 4.0 + 4.0) + core * (4.0 + 5.0);
  return e;
}

}  // namespace

LayerTime layer_time(const model::ModelConfig& cfg, const MachineModel& mm,
                     memory::Technique tech) {
  const int t = cfg.t;
  const bool sharded = core::plan_for(tech.plan).sequence_sharded();
  const double sbh_bytes = static_cast<double>(cfg.s) * cfg.b * cfg.h * 2.0;

  // --- GEMMs (per rank) ----------------------------------------------
  const double t_dense =
      layer_dense_gemm_flops(cfg) / t /
      (mm.peak_flops * mm.dense_gemm_eff(static_cast<double>(cfg.h) / t));
  const double t_attn =
      attention_core_flops(cfg) / t / (mm.peak_flops * mm.attn_gemm_eff);

  // --- elementwise ----------------------------------------------------
  const ElementwiseBytes eb = forward_elementwise_bytes(cfg);
  const double outer_div = sharded ? t : 1;
  const double t_elem_fwd = (eb.outer / outer_div + eb.inner) / mm.hbm_bw;
  // Backward elementwise does slightly more work (reductions for
  // layer-norm/bias grads).
  const double t_elem_bwd = 1.5 * t_elem_fwd;

  // --- communication --------------------------------------------------
  // Fig 4: forward has two all-reduces (f̄ after attention and MLP).
  // Fig 5: forward has two all-gathers (g) + two reduce-scatters (ḡ).
  const double t_comm_fwd = sharded ? 4.0 * rs_or_ag_time(mm, sbh_bytes, t)
                                    : 2.0 * all_reduce_time(mm, sbh_bytes, t);
  // Backward mirrors it (f's all-reduce / the conjugates), partially
  // overlapped with weight-gradient GEMMs (Table 4 footnote). A
  // sequence-sharded backward additionally re-gathers the two stored
  // input shards, overlapped per §4.2.2.
  const double t_comm_bwd =
      t_comm_fwd * (1.0 - mm.bwd_comm_overlap) +
      (sharded ? 2.0 * rs_or_ag_time(mm, sbh_bytes, t) *
                     (1.0 - mm.sp_regather_overlap)
               : 0.0);

  LayerTime lt;
  lt.forward = t_dense + t_attn + t_elem_fwd + t_comm_fwd + mm.kernel_overhead;
  lt.backward = 2.0 * (t_dense + t_attn) + t_elem_bwd + t_comm_bwd +
                mm.kernel_overhead;
  lt.backward_comm = t_comm_bwd;

  // --- recomputation (extra forward work inside backward) -------------
  const double core_bytes =
      static_cast<double>(cfg.a) * cfg.s * cfg.s * cfg.b / t * 9.0;
  switch (tech.recompute) {
    case core::Recompute::kNone:
      break;
    case core::Recompute::kSelective:
      // Replays only QKᵀ/softmax/dropout/attn·V: attention GEMMs plus
      // the core's softmax+dropout traffic. No communication.
      lt.recompute = t_attn + core_bytes / mm.hbm_bw;
      break;
    case core::Recompute::kFull:
      // Replays the entire layer forward (including its collectives).
      lt.recompute = lt.forward;
      break;
  }
  return lt;
}

}  // namespace mls::perf
