// The paper's headline demo on the numeric substrate: train the same
// model serially and under tensor parallelism (t=4) with sequence
// parallelism + selective activation recomputation, and show
//
//   1. the loss trajectories coincide (the techniques are exact),
//   2. per-rank activation memory drops per Table 2,
//   3. TP and TP+SP move exactly the same communication bytes (§4.2.2).
#include <cstdio>
#include <string>

#include "comm/spmd.h"
#include "core/parallel_plan.h"
#include "common/memtracker.h"
#include "common/table.h"
#include "common/units.h"
#include "memory/activation_model.h"
#include "train/trainer.h"

using namespace mls;

namespace {

struct RunStats {
  std::vector<float> losses;
  int64_t peak_act_bytes = 0;
  int64_t collective_bytes = 0;
};

RunStats run(model::ModelConfig cfg, const std::vector<std::vector<data::Batch>>& steps_data) {
  RunStats out;
  spmd::run(cfg.t, [&](comm::Comm& world) {
    MemoryTracker::instance().reset();
    train::TrainerOptions opts;
    opts.lr = 0.01f;
    opts.use_adam = false;
    train::Trainer trainer(cfg, world, opts);
    std::vector<float> losses;
    int64_t peak = 0;
    for (const auto& batch : steps_data) {
      auto r = trainer.step(batch);
      losses.push_back(r.loss);
      peak = std::max(peak, r.peak_activation_bytes);
    }
    if (world.rank() == 0) {
      out.losses = losses;
      out.peak_act_bytes = peak;
      out.collective_bytes = trainer.engine().tp_comm().stats().bytes_received;
    }
  });
  return out;
}

}  // namespace

int main() {
  model::ModelConfig base = model::ModelConfig::tiny(/*t=*/1, /*layers=*/4);
  base.a = 8;
  base.h = 64;
  base.s = 32;
  base.v = 128;
  base.b = 2;
  base.global_batch = 4;

  // Identical data for every configuration.
  data::MarkovDataset ds(base.v, 1.0, 21);
  std::vector<std::vector<data::Batch>> steps_data;
  for (int i = 0; i < 20; ++i) steps_data.push_back(data::make_microbatches(ds, base));

  std::printf("=== Serial vs tensor-parallel vs tensor+sequence+selective ===\n\n");

  RunStats serial = run(base, steps_data);

  model::ModelConfig tp = base;
  tp.t = 4;
  RunStats tp_run = run(tp, steps_data);

  model::ModelConfig present = tp;
  present.set_plan(core::PlanKind::kTensorSequence);
  present.recompute = core::Recompute::kSelective;
  RunStats present_run = run(present, steps_data);

  // Fourth column: an alternative parallel plan on the same model.
  // MLS_PLAN selects it (default folded_tsp — arXiv 2604.26294's fused
  // nodes on the TP+SP wiring; losses must still coincide exactly).
  model::ModelConfig alt = present;
  alt.set_plan(core::plan_kind_from_string(
      core::Env::str("MLS_PLAN", "folded_tsp")));
  RunStats alt_run = run(alt, steps_data);
  const std::string alt_name =
      std::string(alt.plan().name()) + "+selective";

  Table t({"step", "serial loss", "TP (t=4) loss", "TP+SP+selective loss",
           alt_name + " loss"});
  for (size_t i = 0; i < serial.losses.size(); i += 4) {
    t.add_row({std::to_string(i), fmt(serial.losses[i], 5),
               fmt(tp_run.losses[i], 5), fmt(present_run.losses[i], 5),
               fmt(alt_run.losses[i], 5)});
  }
  t.print();

  std::printf("\nPer-rank peak activation memory (measured):\n");
  Table m({"configuration", "peak bytes", "vs serial"});
  auto ratio = [&](int64_t v) {
    return fmt(100.0 * static_cast<double>(v) / static_cast<double>(serial.peak_act_bytes), 1) + "%";
  };
  m.add_row({"serial", format_bytes(static_cast<double>(serial.peak_act_bytes)), "100%"});
  m.add_row({"tensor parallel (t=4)",
             format_bytes(static_cast<double>(tp_run.peak_act_bytes)),
             ratio(tp_run.peak_act_bytes)});
  m.add_row({"TP + sequence parallel + selective (present work)",
             format_bytes(static_cast<double>(present_run.peak_act_bytes)),
             ratio(present_run.peak_act_bytes)});
  m.add_row({alt_name,
             format_bytes(static_cast<double>(alt_run.peak_act_bytes)),
             ratio(alt_run.peak_act_bytes)});
  m.print();

  std::printf("\nCollective traffic per rank over the run (§4.2.2 identity):\n");
  Table c({"configuration", "ring bytes received / rank"});
  c.add_row({"tensor parallel (all-reduce)",
             format_bytes(static_cast<double>(tp_run.collective_bytes))});
  c.add_row({"tensor + sequence parallel (all-gather + reduce-scatter)",
             format_bytes(static_cast<double>(present_run.collective_bytes))});
  c.print();
  std::printf(
      "(Not identical to the last byte only because the selective-recompute\n"
      "configuration also re-gathers during checkpoint replay; the f/f̄ vs\n"
      "g/ḡ volumes themselves are equal — see bench_collectives.)\n");
  return 0;
}
