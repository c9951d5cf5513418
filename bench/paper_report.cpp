// The paper's deterministic artifacts, one section per figure or table:
// Fig 1, Table 2, Fig 7, Table 4, Fig 8, Table 5, Fig 9 / App B, App A
// with the §5 constants, App C, and the §4.2.2 / §5 / §4.2.3 ablations.
//
// Closed forms come from src/memory (activation bytes) and src/perf
// (the calibrated A100 cost model, the pipeline-schedule simulation and
// the FLOPs model), evaluated for the Table 3 models. The runtime parts
// execute real layers and pipelines on the simulated multi-rank
// substrate at tiny scale. Nothing reads a clock, so the output is
// byte-stable: it is tracked as paper_report.txt, which a ctest diffs.
//
// Exits 1 if any Table 2 row's measured bytes miss its formula.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/table.h"
#include "common/units.h"
#include "data/synthetic.h"
#include "memory/activation_model.h"
#include "model/transformer.h"
#include "perf/flops.h"
#include "perf/layer_time.h"
#include "perf/pipeline_sim.h"
#include "pipeline/executor.h"

using namespace mls;

namespace {

using core::Recompute;
using memory::Technique;

constexpr auto kTp = core::PlanKind::kTensorParallel;
constexpr auto kTpSp = core::PlanKind::kTensorSequence;
constexpr auto kFolded = core::PlanKind::kFoldedTsp;
constexpr auto kNone = Recompute::kNone;
constexpr auto kSel = Recompute::kSelective;
constexpr auto kFull = Recompute::kFull;

constexpr Technique kBaseline{kTp, kNone};  // Eq 2
// Full recompute is the paper's replicated sbh(2) row: tp x full.
constexpr Technique kFullRecompute{kTp, kFull};
constexpr Technique kPresent{kTpSp, kSel};  // Eq 6: the present work

const double kA100Bytes = 80.0 * 1024 * 1024 * 1024;

// Paper Table 3: the four models the closed-form sections evaluate.
std::array<model::ModelConfig, 4> table3() {
  return {model::ModelConfig::gpt_22b(), model::ModelConfig::gpt_175b(),
          model::ModelConfig::gpt_530b(), model::ModelConfig::gpt_1t()};
}

// ------------------------------------------------------------- runtime

struct LayerBytes {
  int64_t logical = -1;   // MemoryTracker major bytes (paper accounting)
  int64_t physical = -1;  // pool arena high-water delta over fwd+bwd
};

// One transformer layer of `cfg` run forward and backward on cfg.t
// simulated ranks: the bytes the autograd tape keeps for backward, and
// rank 0's pooled physical peak over fwd+bwd.
LayerBytes measure_layer_bytes(const model::ModelConfig& cfg) {
  LayerBytes measured;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    auto& mt = MemoryTracker::instance();
    mt.reset();
    const core::ParallelEnv env = model::make_env(cfg, c);
    Rng master(cfg.seed);
    model::TransformerLayer layer(env, cfg, 0, master);
    Rng drng(5);
    ag::Var x(Tensor::randn(Shape{{cfg.s_local(), cfg.b, cfg.h}}, drng), true);
    // Re-arm the arena's high-water marks after weights + input exist,
    // so the physical column isolates what fwd+bwd transiently demand
    // from the pool (fp32 simulation bytes and 1-byte masks, transients
    // included) next to the logical fp16/mask accounting of the formulas.
    const int64_t live0 = mt.pooled_in_use_bytes();
    mt.reset_physical_peak();
    ag::Var y = layer.forward(x, env);
    const int64_t bytes = mt.current_major_bytes();
    ag::backward(y, Tensor::full(y.value().shape(), 1.f));
    if (c.rank() == 0) {
      measured.logical = bytes;
      measured.physical = mt.pooled_in_use_peak_bytes() - live0;
    }
  });
  return measured;
}

// The t=4 layer both Table 2's validation and ablation A measure.
model::ModelConfig layer_probe() {
  model::ModelConfig cfg = model::ModelConfig::tiny(4, 1);
  cfg.a = 8;
  cfg.h = 64;
  cfg.s = 32;
  return cfg;
}

// A tiny 4-layer pipeline of p stages with four microbatches of the
// uniform dataset seeded `data_seed`.
struct TinyPipeline {
  model::ModelConfig cfg = model::ModelConfig::tiny(1, 4);
  std::vector<std::vector<int64_t>> tokens, targets;

  TinyPipeline(int p, Recompute recompute, uint64_t data_seed) {
    cfg.p = p;
    cfg.global_batch = 4 * cfg.b;
    cfg.recompute = recompute;
    data::UniformDataset ds(cfg.v, data_seed);
    for (auto& mb : data::make_microbatches(ds, cfg)) {
      tokens.push_back(mb.tokens);
      targets.push_back(mb.targets);
    }
  }

  // One training iteration; element r holds pipeline rank r's stats.
  std::vector<pipeline::IterationStats> run(pipeline::PipelineOptions opts) const {
    std::vector<pipeline::IterationStats> stats(static_cast<size_t>(cfg.p));
    spmd::run(cfg.p, [&](comm::Comm& world) {
      MemoryTracker::instance().reset();
      pipeline::PipelineEngine engine(cfg, world, opts);
      stats[static_cast<size_t>(world.rank())] =
          engine.run_iteration(tokens, targets, 0);
    });
    return stats;
  }
};

// -------------------------------------------------------------- Fig 1
// Baseline activations (Eq 2) exceed the 80 GB A100 for every model;
// the present work (Eq 6) brings every model under the line.

void fig1_memory() {
  std::printf(
      "=== Figure 1: parameters, optimizer state, and activation memory per "
      "GPU ===\n"
      "Dashed line in the paper: 80 GB (NVIDIA A100).\n\n");

  Table t({"model", "params+opt", "activations (baseline, Eq 2)",
           "baseline total", "fits?", "activations (present, Eq 6)",
           "present total", "fits?"});
  for (const auto& cfg : table3()) {
    const double state = memory::model_state_bytes_per_rank(cfg).total();
    const double base = memory::total_activation_bytes_first_stage(cfg, kBaseline);
    const double present =
        memory::total_activation_bytes_first_stage(cfg, kPresent);
    t.add_row({cfg.name, format_bytes(state), format_bytes(base),
               format_bytes(state + base),
               state + base <= kA100Bytes ? "yes" : "NO (paper: no)",
               format_bytes(present), format_bytes(state + present),
               state + present <= kA100Bytes ? "yes (paper: yes)" : "NO"});
  }
  t.print();

  std::printf(
      "\nPaper claim: \"for all these cases, the required memory for the\n"
      "baseline cases is above the 80GB memory provided by an NVIDIA A100\"\n"
      "and present work \"reduces the activation memory required to fit\".\n");
}

// ------------------------------------------------------------- Table 2
// The closed-form table for the Table 3 models, then a real layer per
// (plan, recompute) cell whose saved bytes must equal the formula.

// A named view of one (plan, recompute) cell: the row label and the
// paper's formula string. `serial` evaluates the tp cell at t=1, which
// is Table 2's "no parallelism" row (Eq 1).
struct View {
  const char* label;
  const char* formula;
  Technique tech;
  bool serial = false;
};

// Table 2's six rows, then the folded-TSP plan's two.
const View kTable2Rows[] = {
    {"no parallelism", "sbh(34 + 5as/h)", {kTp, kNone}, true},
    {"tensor parallel (baseline)", "sbh(10 + 24/t + 5as/ht)", {kTp, kNone}},
    {"tensor + sequence parallel", "sbh(34/t + 5as/ht)", {kTpSp, kNone}},
    {"tensor parallel + selective recompute", "sbh(10 + 24/t)", {kTp, kSel}},
    {"tensor + sequence parallel + selective recompute", "sbh(34/t)",
     {kTpSp, kSel}},
    {"full activation recomputation", "sbh(2)", {kTp, kFull}},
    {"folded tensor + sequence parallel", "sbh(26/t + 3as/ht)",
     {kFolded, kNone}},
    {"folded tensor + sequence parallel + selective recompute", "sbh(26/t)",
     {kFolded, kSel}},
};

// The sequence-sharded full-recompute cells, which Table 2 folds into
// its replicated sbh(2) row: the stored layer input is sharded s/t.
const View kShardedFull[] = {
    {"tensor + sequence parallel + full recompute", "sbh(2/t)",
     {kTpSp, kFull}},
    {"folded tensor + sequence parallel + full recompute", "sbh(2/t)",
     {kFolded, kFull}},
};

// `cfg` rewired to the view's cell.
model::ModelConfig at(model::ModelConfig cfg, const View& v) {
  if (v.serial) cfg.t = 1;
  cfg.set_plan(v.tech.plan);
  cfg.recompute = v.tech.recompute;
  return cfg;
}

// False if any measured row prints MISMATCH.
bool table2_activation_memory() {
  std::printf("=== Table 2: activation memory per transformer layer ===\n\n");
  {
    Table t({"configuration", "formula", "22B", "175B (GPT-3)",
             "530B (MT-NLG)", "1T"});
    for (const View& v : kTable2Rows) {
      std::vector<std::string> cells = {v.label, v.formula};
      for (const auto& cfg : table3()) {
        cells.push_back(
            format_bytes(memory::act_bytes_per_layer(at(cfg, v), v.tech)));
      }
      t.add_row(cells);
    }
    t.print();
  }

  std::printf(
      "\n--- Empirical validation (t=4 layer on the simulated substrate; "
      "tracker vs formula) ---\n");
  bool all_exact = true;
  Table t({"technique", "formula bytes", "measured bytes", "match",
           "pooled physical peak"});
  std::vector<View> views(std::begin(kTable2Rows), std::end(kTable2Rows));
  views.insert(views.end(), std::begin(kShardedFull), std::end(kShardedFull));
  for (const View& v : views) {
    const model::ModelConfig cfg = at(layer_probe(), v);
    const auto expect =
        static_cast<int64_t>(memory::act_bytes_per_layer(cfg, v.tech));
    const auto got = measure_layer_bytes(cfg);
    const bool exact = expect == got.logical;
    all_exact = all_exact && exact;
    t.add_row({v.label, std::to_string(expect), std::to_string(got.logical),
               exact ? "EXACT" : "MISMATCH", std::to_string(got.physical)});
  }
  t.print();
  std::printf(
      "\npooled physical peak = high-water mark of live bytes rank 0's\n"
      "arena had handed out during fwd+bwd (fp32 simulation storage and\n"
      "1-byte dropout masks, transients included); the logical columns\n"
      "count only saved activations at paper dtypes.\n");
  return all_exact;
}

// -------------------------------------------------------------- Fig 7
// Each technique alone roughly halves the baseline; combined they give
// ~5x (under ~20%), about 2x above the full-recompute floor (~10%).

void fig7_memory_percent() {
  std::printf(
      "=== Figure 7: memory as %% of the tensor-parallel baseline (Eq 2) "
      "===\n\n");

  Table t({"model", "sequence parallel", "selective recompute",
           "both (present work)", "full recompute"});
  double worst_combined = 0;
  for (const auto& cfg : table3()) {
    const double base = memory::act_bytes_per_layer(cfg, kBaseline);
    auto pct = [&](Technique tech) {
      return fmt(100.0 * memory::act_bytes_per_layer(cfg, tech) / base, 1) + "%";
    };
    worst_combined = std::max(
        worst_combined, memory::act_bytes_per_layer(cfg, kPresent) / base);
    t.add_row({cfg.name, pct({kTpSp, kNone}), pct({kTp, kSel}), pct(kPresent),
               pct(kFullRecompute)});
  }
  t.print();

  std::printf(
      "\nPaper: \"Individually, both techniques cut the memory requirement\n"
      "nearly in half, and combined provide a 5x reduction bringing the\n"
      "memory requirements to under 20%%\" (worst combined here: %.1f%%).\n"
      "\"This is only ~2x of the full activation recomputation ... at 10%%\".\n",
      100.0 * worst_combined);
}

// ------------------------------------------------------------- Table 4
// 22B single-layer times from the cost model, calibrated on row 1's
// forward time only: the other nine numbers are predictions. Folded
// TSP (arXiv 2604.26294) is not in the paper; it prices like SP +
// selective because it shares their collectives and sharding.

void table4_layer_time() {
  std::printf(
      "=== Table 4: single 22B transformer-layer times (cost model vs "
      "paper) ===\n\n");

  struct Row {
    const char* name;
    Technique tech;
    double paper_fwd, paper_bwd, paper_comb;  // < 0: no paper number
    const char* paper_ovh;
  };
  const Row rows[] = {
      {"Baseline no recompute", kBaseline, 7.7, 11.9, 19.6, "-"},
      {"Sequence Parallelism", {kTpSp, kNone}, 7.2, 11.8, 19.0, "-3%"},
      {"Baseline with recompute", kFullRecompute, 7.7, 19.5, 27.2, "39%"},
      {"Selective Recompute", {kTp, kSel}, 7.7, 13.2, 20.9, "7%"},
      {"Selective + Sequence", kPresent, 7.2, 13.1, 20.3, "4%"},
      {"Folded TSP + selective", {kFolded, kSel}, -1, -1, -1, "-"},
  };
  // "ours (paper)" with one decimal.
  auto with_paper = [](double ours, double paper) {
    return fmt(ours, 1) + " (" + (paper < 0 ? "-" : fmt(paper, 1)) + ")";
  };

  const auto mm = perf::MachineModel::a100();
  const auto cfg = model::ModelConfig::gpt_22b();
  const auto base = perf::layer_time(cfg, mm, kBaseline);

  Table t({"experiment", "fwd ms (paper)", "bwd ms (paper)",
           "combined ms (paper)", "overhead (paper)"});
  for (const auto& r : rows) {
    const auto lt = perf::layer_time(cfg, mm, r.tech);
    const double ovh = 100.0 * (lt.combined() / base.combined() - 1.0);
    t.add_row({r.name, with_paper(lt.forward * 1e3, r.paper_fwd),
               with_paper((lt.backward + lt.recompute) * 1e3, r.paper_bwd),
               with_paper(lt.combined() * 1e3, r.paper_comb),
               fmt(ovh, 0) + "% (" + r.paper_ovh + ")"});
  }
  t.print();
}

// -------------------------------------------------------------- Fig 8
// "As the model size grows, the reduction in overhead also increases.
// For the 530B and 1T cases, the overhead is just 2%, compared to 36%
// overhead for full recompute." Folded TSP prices like present work.

void fig8_breakdown() {
  std::printf(
      "=== Figure 8: per-layer forward / backward / recompute breakdown "
      "===\n\n");
  const auto mm = perf::MachineModel::a100();
  struct Variant {
    const char* name;
    Technique tech;
  };
  const Variant variants[] = {
      {"baseline (no recompute)", kBaseline},
      {"full recompute", kFullRecompute},
      {"present work (SP+selective)", kPresent},
      {"folded TSP + selective", {kFolded, kSel}},
  };

  Table t({"model", "variant", "fwd ms", "bwd ms", "recompute ms",
           "combined ms", "overhead vs baseline"});
  for (const auto& cfg : table3()) {
    const auto base = perf::layer_time(cfg, mm, variants[0].tech);
    for (const auto& v : variants) {
      const auto lt = perf::layer_time(cfg, mm, v.tech);
      const double ovh = 100.0 * (lt.combined() / base.combined() - 1.0);
      t.add_row({cfg.name, v.name, fmt(lt.forward * 1e3, 2),
                 fmt(lt.backward * 1e3, 2), fmt(lt.recompute * 1e3, 2),
                 fmt(lt.combined() * 1e3, 2),
                 &v == variants ? "-" : fmt(ovh, 1) + "%"});
    }
    t.add_separator();
  }
  t.print();

  std::printf(
      "\nPaper: present-work overhead shrinks with model size, reaching ~2%%\n"
      "for 530B/1T while full recompute stays at ~36%%.\n");
}

// ------------------------------------------------------------- Table 5
// Iteration times from an event-driven simulation of the pipeline
// schedules (1F1B / interleaved) over the per-layer cost model: full
// recompute vs present work, plus the §6.3 data-parallel note.

void table5_e2e() {
  std::printf("=== Table 5: end-to-end iteration time ===\n\n");
  const auto mm = perf::MachineModel::a100();
  struct Paper {
    double full_s, present_s, incr, mfu, hfu;
  };
  const Paper paper[] = {  // in table3() order
      {1.42, 1.10, 29.0, 41.5, 43.7},
      {18.13, 13.75, 31.8, 51.4, 52.8},
      {49.05, 37.83, 29.7, 56.0, 57.0},
      {94.42, 71.49, 32.1, 56.3, 57.0},
  };

  Table t({"model", "GPUs", "full recompute s (paper)",
           "present work s (paper)", "throughput incr (paper)",
           "MFU (paper)", "HFU (paper)"});
  const auto models = table3();
  for (size_t i = 0; i < models.size(); ++i) {
    const auto& cfg = models[i];
    const Paper& r = paper[i];
    const auto full = perf::end_to_end(cfg, mm, kFullRecompute);
    const auto present = perf::end_to_end(cfg, mm, kPresent);
    const double incr =
        100.0 * (full.iteration_seconds / present.iteration_seconds - 1.0);
    t.add_row(
        {cfg.name, std::to_string(cfg.num_gpus()),
         fmt(full.iteration_seconds, 2) + " (" + fmt(r.full_s, 2) + ")",
         fmt(present.iteration_seconds, 2) + " (" + fmt(r.present_s, 2) + ")",
         fmt(incr, 1) + "% (" + fmt(r.incr, 1) + "%)",
         fmt(100 * present.mfu, 1) + "% (" + fmt(r.mfu, 1) + "%)",
         fmt(100 * present.hfu, 1) + "% (" + fmt(r.hfu, 1) + "%)"});
  }
  t.print();

  const auto& cfg530 = models[2];
  const auto present530 = perf::end_to_end(cfg530, mm, kPresent);
  const double dp_s =
      perf::dp_iteration_seconds(cfg530, mm, present530.iteration_seconds, 8);
  std::printf(
      "\n§6.3 DP note — 530B scaled to 8-way data parallelism (2240 GPUs):\n"
      "  iteration %.2f s -> %.2f s (paper: 37.83 -> 39.15)\n"
      "  MFU %.1f%% -> %.1f%% (paper: 56.0%% -> 54.2%%)\n",
      present530.iteration_seconds, dp_s, 100 * present530.mfu,
      100 * perf::mfu(cfg530, dp_s, mm.peak_flops));

  std::printf(
      "\nPaper: \"the techniques presented in the paper provide between\n"
      "29.0%% and 32.1%% improvement in the throughput\".\n");
}

// ------------------------------------------------------ Fig 9 / App B
// The 530B per-pipeline-rank activation profile with and without
// output-tensor deallocation, then measured per-rank peaks of a real
// tiny pipeline with the optimization off and on.

void fig9_pipeline_memory() {
  std::printf(
      "=== Figure 9: activation memory per pipeline rank (530B, p=35) "
      "===\n\n");

  model::ModelConfig cfg = model::ModelConfig::gpt_530b();
  cfg.set_plan(kTpSp);
  cfg.recompute = kSel;
  cfg.interleave_m = 1;  // the figure shows the plain 1F1B memory pattern
  const auto profile =
      memory::per_pipeline_rank_memory(cfg, memory::technique_of(cfg));

  Table t({"pp rank", "in-flight mb", "unoptimized", "optimized (dealloc)",
           "saving"});
  for (const auto& r : profile) {
    if (r.rank > 6 && r.rank < cfg.p - 3 && r.rank % 8 != 0) continue;  // thin out
    t.add_row({std::to_string(r.rank), std::to_string(r.microbatches_in_flight),
               format_bytes(r.bytes_unoptimized),
               format_bytes(r.bytes_optimized),
               format_bytes(r.bytes_unoptimized - r.bytes_optimized)});
  }
  t.print();
  const double rank0_saving =
      profile[0].bytes_unoptimized - profile[0].bytes_optimized;
  std::printf(
      "\nRank-0 saving: %s — paper: \"the theoretical savings for this\n"
      "optimization on the first pipeline stage is sbhp = 2.73 GB\".\n",
      format_bytes(rank0_saving).c_str());

  std::printf(
      "\n--- Runtime validation (numeric pipeline, p=4, tiny config) ---\n");
  const TinyPipeline tiny(4, kNone, 9);
  const auto prof =
      memory::per_pipeline_rank_memory(tiny.cfg, memory::technique_of(tiny.cfg));
  for (const bool dealloc : {false, true}) {
    pipeline::PipelineOptions opts;
    opts.deallocate_outputs = dealloc;
    const auto stats = tiny.run(opts);
    Table rt({"pp rank", "in-flight mb",
              std::string("measured peak (dealloc ") +
                  (dealloc ? "ON)" : "OFF)"),
              "analytic"});
    for (size_t r = 0; r < stats.size(); ++r) {
      rt.add_row(
          {std::to_string(r), std::to_string(prof[r].microbatches_in_flight),
           format_bytes(static_cast<double>(stats[r].peak_activation_bytes)),
           format_bytes(dealloc ? prof[r].bytes_optimized
                                : prof[r].bytes_unoptimized)});
    }
    rt.print();
  }
  std::printf(
      "(Measured peaks include transient backward buffers, so they sit at\n"
      "or slightly above the analytic end-of-forward values; the per-rank\n"
      "slope and the dealloc saving match the analytic curves.)\n");
}

// -------------------------------------------------- App A + §5 constants
// The FLOPs model (Eqs 7-9) and the headline closed forms: 5as/h, the
// selective-recompute memory savings (70% / 65%) and its FLOPs
// overhead (2.7% / 1.6%).

void appa_flops() {
  std::printf("=== Appendix A: model and hardware FLOPs ===\n\n");

  Table t({"model", "model FLOPs/iter (Eq 7)", "hw FLOPs selective (Eq 8)",
           "hw/model", "1 + s/6h (Eq 9)"});
  for (const auto& cfg : table3()) {
    const double mf = perf::model_flops_per_iteration(cfg);
    const double hf = perf::hardware_flops_per_iteration(cfg, kSel);
    t.add_row({cfg.name, format_flops(mf), format_flops(hf), fmt(hf / mf, 4),
               fmt(perf::hw_to_model_flops_ratio_approx(cfg), 4)});
  }
  t.print();

  std::printf("\n=== §5 constants ===\n\n");
  Table t2({"model", "5as/h (paper)", "selective memory saving (paper)",
            "selective FLOPs overhead (paper)"});
  struct Paper {
    model::ModelConfig cfg;
    double term, saving, ovh;
  };
  const Paper rows[] = {
      {model::ModelConfig::gpt_175b(), 80, 70, 2.7},
      {model::ModelConfig::gpt_530b(), 64, 65, 1.6},
  };
  for (const auto& r : rows) {
    const double term = 5.0 * r.cfg.a * r.cfg.s / r.cfg.h;
    const double with_attn = memory::act_bytes_per_layer(r.cfg, {kTpSp, kNone});
    const double without = memory::act_bytes_per_layer(r.cfg, kPresent);
    const double saving = 100.0 * (1.0 - without / with_attn);
    const double hw = perf::hardware_flops_per_iteration(r.cfg, kSel);
    const double ovh = 100.0 * (hw / perf::model_flops_per_iteration(r.cfg) - 1.0);
    t2.add_row({r.cfg.name, fmt(term, 0) + " (" + fmt(r.term, 0) + ")",
                fmt(saving, 1) + "% (" + fmt(r.saving, 0) + "%)",
                fmt(ovh, 2) + "% (" + fmt(r.ovh, 1) + "%)"});
  }
  t2.print();
}

// -------------------------------------------------------------- App C
// Microbatch-level recomputation: store all activations for as many
// in-flight microbatches as device memory allows, checkpoint the rest.

// MFU with microbatch-level recomputation on top of SP+selective. Each
// pipeline stage S holds max(0, p−S) microbatches; the stage's free
// memory (80 GB − model state − boundary buffers) lets k of them skip
// recomputation, saving k/w of the per-layer recompute time on that
// stage's backward passes. Stage 0, with the least headroom, governs
// the critical path.
double mfu_with_mb_recompute(const model::ModelConfig& cfg,
                             const perf::MachineModel& mm) {
  const auto base = perf::estimate_iteration_time(cfg, mm, kPresent);

  const double state = memory::model_state_bytes_per_rank(cfg).total();
  // Stage 0 under 1F1B holds w = p microbatches of checkpointed
  // activations; free memory beyond that lets k of them store all.
  const double per_mb_ckpt = memory::act_bytes_per_layer(cfg, kPresent) *
                             static_cast<double>(cfg.layers_per_stage()) *
                             memory::interleave_factor(cfg);
  const double per_mb_stored = memory::act_bytes_per_layer(cfg, {kTpSp, kNone}) *
                               static_cast<double>(cfg.layers_per_stage()) *
                               memory::interleave_factor(cfg);
  const double w = std::min<double>(cfg.p, static_cast<double>(cfg.microbatches()));
  const double free_bytes = kA100Bytes - state - w * per_mb_ckpt;
  const double k = std::clamp(
      free_bytes / std::max(1.0, per_mb_stored - per_mb_ckpt), 0.0, w);

  // Fraction of microbatches that skip the selective recompute.
  const double frac = k / w;
  const auto lt = perf::layer_time(cfg, mm, kPresent);
  const double saved = frac * static_cast<double>(cfg.microbatches()) *
                       (static_cast<double>(cfg.L) / cfg.p) * lt.recompute *
                       memory::interleave_factor(cfg);
  return perf::mfu(cfg, base.seconds - saved, mm.peak_flops);
}

void appc_microbatch() {
  std::printf(
      "=== Appendix C: microbatch-level activation recomputation ===\n\n");
  const auto mm = perf::MachineModel::a100();
  {
    // The closed form assumes the recompute saved on stage 0 is entirely
    // on the critical path, so it is an *upper bound*; the paper's
    // measured uplift (+0.7/+0.4) also absorbs memory fragmentation and
    // scheduling effects it cites in §7.
    Table t({"model", "MFU (SP+selective)",
             "MFU (+ mb-level recompute, upper bound)", "uplift (paper)"});
    struct Row {
      model::ModelConfig cfg;
      double paper_uplift;
    };
    const Row rows[] = {{model::ModelConfig::gpt_175b(), 0.7},
                        {model::ModelConfig::gpt_530b(), 0.4}};
    for (const auto& r : rows) {
      const auto base = perf::end_to_end(r.cfg, mm, kPresent);
      const double with_mb = mfu_with_mb_recompute(r.cfg, mm);
      t.add_row({r.cfg.name, fmt(100 * base.mfu, 1) + "%",
                 fmt(100 * with_mb, 1) + "%",
                 "+" + fmt(100 * (with_mb - base.mfu), 1) + "% (+" +
                     fmt(r.paper_uplift, 1) + "%)"});
    }
    t.print();
    std::printf(
        "\nPaper: \"increases the model FLOPs utilization of the 175B and "
        "530B\nparameter models to 52.3%% (+0.7%%) and 56.4%% (+0.4%%)\" — "
        "\"the gain is\nsmall because the selective recomputation overhead "
        "is as small as ~2%%\".\n");
  }

  // A real pipeline under growing budgets stores more microbatches
  // fully (full recompute is the fallback), with identical losses.
  std::printf("\n--- Runtime demonstration (numeric pipeline, p=2) ---\n");
  const TinyPipeline tiny(2, kFull, 10);
  Table t({"store budget", "mb stored full", "mb checkpointed", "peak bytes",
           "loss"});
  for (int64_t budget : {int64_t{0}, int64_t{100} * 1024, int64_t{200} * 1024,
                         int64_t{1} << 40}) {
    pipeline::PipelineOptions opts;
    opts.microbatch_store_budget = budget;
    const auto rank0 = tiny.run(opts)[0];
    t.add_row({budget == (int64_t{1} << 40) ? "unlimited"
                                            : format_bytes(static_cast<double>(budget)),
               std::to_string(rank0.microbatches_stored_full),
               std::to_string(rank0.microbatches_checkpointed),
               format_bytes(static_cast<double>(rank0.peak_activation_bytes)),
               fmt(rank0.loss, 5)});
  }
  t.print();
  std::printf(
      "(Losses are identical across budgets: microbatch-level recomputation\n"
      "changes only when activations are recomputed, never the math.)\n");
}

// ----------------------------------------------------------- ablations
//  A. §4.2.2 sharded-input save: store only Y_i^s and re-gather in
//     backward, vs keeping the gathered Y.
//  B. Checkpointing k of L layers (the "simple approach" §5 argues
//     against) vs selective recomputation: the memory/FLOPs frontier.
//  C. Interleaving sweep: bubble fraction and activation memory factor
//     vs m, the schedule trade-off of §4.2.3.

void ablation_sharded_save() {
  std::printf("=== Ablation A: sharded-input save (§4.2.2) ===\n\n");
  auto measured = [](bool sharded_save) {
    model::ModelConfig cfg = layer_probe();
    cfg.set_plan(kTpSp);
    cfg.sharded_input_save = sharded_save;
    return std::to_string(measure_layer_bytes(cfg).logical);
  };
  Table t({"save mode", "measured bytes/layer (t=4 tiny)", "note"});
  t.add_row({"store Y_i^s shard, re-gather in bwd", measured(true),
             "the paper's choice (Eq 4 holds)"});
  t.add_row({"store gathered Y", measured(false),
             "+2 full-size linear inputs per layer"});
  t.print();
  // At paper scale the difference is 2 linear inputs x (1 - 1/t).
  const auto cfg = model::ModelConfig::gpt_530b();
  const double sbh = static_cast<double>(cfg.s) * cfg.b * cfg.h;
  const double delta = 2.0 * 2.0 * sbh * (1.0 - 1.0 / cfg.t) * cfg.L;
  std::printf(
      "\nAt 530B scale the full-save variant would add %s of activations\n"
      "on the first pipeline stage; the re-gather's latency is hidden by\n"
      "overlapping it with the dY·Wᵀ GEMM (§4.2.2).\n",
      format_bytes(delta).c_str());
}

void ablation_layer_checkpointing() {
  std::printf(
      "\n=== Ablation B: checkpoint k-of-L layers vs selective recompute "
      "(§5) ===\n\n");
  const auto cfg = model::ModelConfig::gpt_530b();
  const double full_layer = memory::act_bytes_per_layer(cfg, {kTpSp, kNone});
  const double ckpt_layer = memory::act_bytes_per_layer(cfg, {kTpSp, kFull});
  const double fwd_flops = perf::layer_forward_flops(cfg) / cfg.t;
  const double core_flops = perf::attention_core_flops(cfg) / cfg.t;

  Table t({"strategy", "bytes/layer (avg)", "recompute FLOPs/layer (avg)"});
  const int64_t Lps = cfg.layers_per_stage();  // 3 for 530B: coarse knob
  for (int64_t k = 0; k <= Lps; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(Lps);
    t.add_row({"checkpoint " + std::to_string(k) + "/" + std::to_string(Lps) +
                   " layers per device",
               format_bytes(frac * ckpt_layer + (1 - frac) * full_layer),
               format_flops(frac * fwd_flops)});
  }
  t.add_separator();
  t.add_row({"selective recompute (present work)",
             format_bytes(memory::act_bytes_per_layer(cfg, kPresent)),
             format_flops(core_flops)});
  t.print();
  std::printf(
      "\nPaper §5: with only %lld layers per device, layer-granularity\n"
      "checkpointing is too coarse (\"limiting the granularity at which\n"
      "you can balance memory vs compute\"); selective recomputation gets\n"
      "most of the memory at a small fraction of the recompute FLOPs.\n",
      static_cast<long long>(Lps));
}

void ablation_interleaving() {
  std::printf("\n=== Ablation C: interleaving sweep (m) for 175B ===\n\n");
  const auto mm = perf::MachineModel::a100();
  Table t({"m", "bubble fraction", "activation factor 1+(p-1)/(pm)",
           "iteration s", "MFU"});
  for (int m : {1, 2, 3, 4, 6}) {
    model::ModelConfig cfg = model::ModelConfig::gpt_175b();
    if (cfg.L % (static_cast<int64_t>(cfg.p) * m) != 0) continue;
    cfg.interleave_m = m;
    const auto est = perf::estimate_iteration_time(cfg, mm, kPresent);
    t.add_row({std::to_string(m), fmt(est.bubble_fraction, 4),
               fmt(memory::interleave_factor(cfg), 3), fmt(est.seconds, 2),
               fmt(100 * perf::mfu(cfg, est.seconds, mm.peak_flops), 1) + "%"});
  }
  t.print();
  std::printf(
      "\nLarger m shrinks the pipeline bubble but inflates activation\n"
      "memory by 1+(p-1)/(pm) and adds p2p traffic — the paper picks "
      "m=3.\n");
}

}  // namespace

int main() {
  fig1_memory();
  const bool table2_exact = table2_activation_memory();
  fig7_memory_percent();
  table4_layer_time();
  fig8_breakdown();
  table5_e2e();
  fig9_pipeline_memory();
  appa_flops();
  appc_microbatch();
  ablation_sharded_save();
  ablation_layer_checkpointing();
  ablation_interleaving();
  return table2_exact ? 0 : 1;
}
