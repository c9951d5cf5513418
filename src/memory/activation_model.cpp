#include "memory/activation_model.h"

#include <algorithm>

#include "common/check.h"
#include "core/parallel_plan.h"

namespace mls::memory {

const char* technique_name(Technique t) {
  switch (t) {
    case Technique::kNoParallel: return "no parallelism";
    case Technique::kTensorParallel: return "tensor parallel (baseline)";
    case Technique::kTensorSequence: return "tensor + sequence parallel";
    case Technique::kTensorSelective: return "tensor parallel + selective recompute";
    case Technique::kTensorSequenceSelective:
      return "tensor + sequence parallel + selective recompute";
    case Technique::kFullRecompute: return "full activation recomputation";
    case Technique::kFoldedTsp: return "folded tensor + sequence parallel";
    case Technique::kFoldedTspSelective:
      return "folded tensor + sequence parallel + selective recompute";
  }
  return "?";
}

Technique technique_of(const model::ModelConfig& cfg) {
  using core::Recompute;
  if (cfg.recompute == Recompute::kFull) return Technique::kFullRecompute;
  const bool sel = cfg.recompute == Recompute::kSelective;
  if (cfg.parallel_plan == core::PlanKind::kFoldedTsp) {
    return sel ? Technique::kFoldedTspSelective : Technique::kFoldedTsp;
  }
  const bool sp = cfg.plan().sequence_sharded();
  if (cfg.t == 1 && !sp && !sel) return Technique::kNoParallel;
  if (sp) {
    return sel ? Technique::kTensorSequenceSelective : Technique::kTensorSequence;
  }
  return sel ? Technique::kTensorSelective : Technique::kTensorParallel;
}

double act_bytes_per_layer(const model::ModelConfig& cfg, Technique tech) {
  const double sbh = static_cast<double>(cfg.s) * cfg.b * cfg.h;
  const double attn = 5.0 * cfg.a * cfg.s * cfg.s * cfg.b;  // the 5as²b term
  const core::LayerDims dims{cfg.s, cfg.b, cfg.h, cfg.a, cfg.t};
  using core::Recompute;
  switch (tech) {
    case Technique::kNoParallel:
      return 34.0 * sbh + attn;  // Eq 1
    case Technique::kTensorParallel:
      return core::tp_plan().act_bytes_per_layer(dims, Recompute::kNone);
    case Technique::kTensorSequence:
      return core::sp_plan().act_bytes_per_layer(dims, Recompute::kNone);
    case Technique::kTensorSelective:
      return core::tp_plan().act_bytes_per_layer(dims, Recompute::kSelective);
    case Technique::kTensorSequenceSelective:
      return core::sp_plan().act_bytes_per_layer(dims, Recompute::kSelective);
    case Technique::kFullRecompute:
      return 2.0 * sbh;  // layer input only (Table 2 last row, replicated)
    case Technique::kFoldedTsp:
      return core::folded_tsp_plan().act_bytes_per_layer(dims,
                                                         Recompute::kNone);
    case Technique::kFoldedTspSelective:
      return core::folded_tsp_plan().act_bytes_per_layer(
          dims, Recompute::kSelective);
  }
  return 0;
}

double extras_bytes(const model::ModelConfig& cfg, Technique tech) {
  const double sbh = static_cast<double>(cfg.s) * cfg.b * cfg.h;
  const double sbv = static_cast<double>(cfg.s) * cfg.b * cfg.v;
  // Shard factor for the sequence-parallel outer region.
  const bool sp = tech == Technique::kTensorSequence ||
                  tech == Technique::kTensorSequenceSelective ||
                  tech == Technique::kFoldedTsp ||
                  tech == Technique::kFoldedTspSelective;
  const double t_outer = sp ? cfg.t : 1.0;
  // Embedding dropout mask: 1 byte/elem, one per in-flight microbatch;
  // the first stage keeps p of them (§4.3's "factor p").
  double total = sbh * cfg.p / t_outer;
  if (cfg.p == 1) {
    // δ_{p=1}: final layer-norm input (2sbh) + output-projection input
    // (2sbh) + fp32 logits (4sbv, always vocabulary-parallel: /t).
    total += 2.0 * sbh / t_outer;        // last layer-norm input
    total += 2.0 * sbh / t_outer;        // output layer input
    total += 4.0 * sbv / cfg.t;          // fp32 logits (softmax)
  }
  return total;
}

double interleave_factor(const model::ModelConfig& cfg) {
  if (cfg.interleave_m <= 1 || cfg.p <= 1) return 1.0;
  return 1.0 + static_cast<double>(cfg.p - 1) /
                   (static_cast<double>(cfg.p) * cfg.interleave_m);
}

double total_activation_bytes_first_stage(const model::ModelConfig& cfg,
                                          Technique tech, bool include_extras) {
  // Eq 5: the first stage must keep p microbatches in flight, i.e.
  // p · L/p = L layers' worth of activations, independent of p —
  // capped by the actual number of microbatches when the batch is
  // smaller than the pipeline depth.
  const double in_flight = std::min<double>(cfg.p, static_cast<double>(cfg.microbatches()));
  const double layers_held = in_flight * (static_cast<double>(cfg.L) / cfg.p);
  double total = act_bytes_per_layer(cfg, tech) * layers_held * interleave_factor(cfg);
  if (include_extras) total += extras_bytes(cfg, tech);
  return total;
}

std::vector<PipelineRankMemory> per_pipeline_rank_memory(
    const model::ModelConfig& cfg, Technique tech) {
  const double per_layer = act_bytes_per_layer(cfg, tech);
  const double layers_per_stage = static_cast<double>(cfg.L) / cfg.p;
  const double sbh = static_cast<double>(cfg.s) * cfg.b * cfg.h;
  const bool sp = tech == Technique::kTensorSequence ||
                  tech == Technique::kTensorSequenceSelective ||
                  tech == Technique::kFoldedTsp ||
                  tech == Technique::kFoldedTspSelective;
  const double t_outer = sp ? cfg.t : 1.0;

  std::vector<PipelineRankMemory> out;
  out.reserve(static_cast<size_t>(cfg.p));
  for (int r = 0; r < cfg.p; ++r) {
    PipelineRankMemory m;
    m.rank = r;
    // 1F1B: stage S keeps max in-flight microbatches = p - S (Appendix
    // C: "max(0, p - S)"), capped by the number of microbatches.
    m.microbatches_in_flight =
        std::min<int64_t>(cfg.p - r, cfg.microbatches());
    const double base = static_cast<double>(m.microbatches_in_flight) *
                        layers_per_stage * per_layer * interleave_factor(cfg);
    // Rank 0's embedding dropout masks (the Fig 9 "spike").
    const double embed = (r == 0)
                             ? sbh * static_cast<double>(m.microbatches_in_flight) /
                                   t_outer
                             : 0.0;
    // The last stage additionally holds the head activations for its
    // single deepest in-flight microbatch (final layer-norm input,
    // output-projection input, fp32 logits). The paper's Eq 5 drops
    // this (its δ only covers p=1); we include it so runtime
    // measurements line up.
    const double head =
        (r == cfg.p - 1)
            ? 4.0 * sbh / t_outer +
                  4.0 * static_cast<double>(cfg.s) * cfg.b * cfg.v / cfg.t
            : 0.0;
    m.bytes_optimized = base + embed + head;
    // Unoptimized: additionally keeps each in-flight microbatch's
    // fp16 stage-output tensor (2sbh bytes), redundant with the next
    // stage's input (Appendix B).
    m.bytes_unoptimized =
        m.bytes_optimized +
        2.0 * sbh * static_cast<double>(m.microbatches_in_flight);
    out.push_back(m);
  }
  return out;
}

double params_per_rank(const model::ModelConfig& cfg) {
  const double dh = static_cast<double>(cfg.h);
  // Per transformer layer: QKV (3h² + 3h) + proj (h² + h) + MLP
  // (8h² + 5h) + two layer-norms (4h) — matmul weights shard by t.
  const double layer = (12.0 * dh * dh) / cfg.t + 13.0 * dh;
  const double layers_per_stage = static_cast<double>(cfg.L) / cfg.p;
  // First stage also holds the (vocabulary-sharded) word embeddings and
  // the positional embeddings.
  const double embeddings =
      static_cast<double>(cfg.v) * dh / cfg.t + static_cast<double>(cfg.s) * dh;
  return layer * layers_per_stage + embeddings;
}

ModelStateBytes model_state_bytes_per_rank(const model::ModelConfig& cfg) {
  const double n = params_per_rank(cfg);
  // Standard mixed-precision Adam budget: fp16 weights (2) + fp16
  // grads (2) + fp32 master weights (4) + fp32 m (4) + fp32 v (4).
  return ModelStateBytes{2.0 * n, 2.0 * n, 12.0 * n};
}

}  // namespace mls::memory
