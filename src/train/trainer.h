// Trainer: the high-level training loop used by the examples — wraps
// the pipeline engine (which subsumes the single-stage case), an Adam
// or SGD optimizer, a warmup+cosine learning-rate schedule, and
// distributed-correct global gradient clipping.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fault/rendezvous.h"
#include "memory/pressure.h"
#include "optim/optim.h"
#include "pipeline/executor.h"
#include "serialize/ckpt_store.h"

namespace mls::train {

struct TrainerOptions {
  float lr = 1e-3f;
  bool use_adam = true;
  // Global L2 gradient clipping threshold; 0 disables. The norm is
  // computed over the whole model (dedup'ed across tensor-parallel
  // replicas and the tied embedding copies), so clipping scales all
  // ranks identically and preserves serial equivalence.
  float grad_clip = 0.0f;
  int64_t warmup_steps = 0;
  int64_t decay_steps = 0;  // cosine decay horizon; 0 = constant lr
  float min_lr_fraction = 0.1f;
  pipeline::PipelineOptions pipeline;
  // Memory-pressure plane (DESIGN.md §14): when the budget is set, each
  // step samples the arena, all-reduces the pressure level (Max) so
  // every rank sees the same verdict, and the governor escalates the
  // recompute rung up the paper's ladder — losses stay bit-identical
  // to the unpressured run. Disabled (no extra collectives) when
  // budget_bytes < 0.
  memory::PressureConfig pressure = memory::PressureConfig::from_env();
};

struct StepResult {
  float loss;
  float lr;
  float grad_norm;  // pre-clip global norm (0 when clipping disabled)
  int64_t peak_activation_bytes;
  // The recompute rung this step actually ran with (the governor may
  // have moved it off the configured floor).
  core::Recompute recompute = core::Recompute::kNone;
};

class Trainer {
 public:
  // world size must be cfg.t * cfg.p.
  Trainer(const model::ModelConfig& cfg, comm::Comm& world,
          TrainerOptions opts = {});

  // One full iteration over the global batch.
  StepResult step(const std::vector<data::Batch>& microbatches);

  int64_t iteration() const { return iteration_; }
  pipeline::PipelineEngine& engine() { return *engine_; }
  // Null unless opts.pressure is enabled. Governor rung state is not
  // checkpointed: a restored run starts back at the configured floor
  // and re-escalates if pressure persists (the monitor resamples).
  const memory::RecomputeGovernor* governor() const { return governor_.get(); }
  // Current learning rate under the schedule.
  float lr_at(int64_t it) const;

  // Distributed checkpointing: each world rank saves/restores its own
  // shard file (parameters, Adam moments, per-chunk RNG state, the
  // iteration counter and global step). Loading requires the same
  // parallel configuration that saved; resuming is bit-exact (tests
  // assert it).
  void save_checkpoint(const std::string& dir) const;
  void load_checkpoint(const std::string& dir);

  // Generation-versioned variants over a CheckpointStore (collective
  // across the trainer's world). save_generation commits a new
  // generation; restore_latest loads the newest one that verifies on
  // every rank and returns its generation number (-1 = fresh start).
  int64_t save_generation(serialize::CheckpointStore& store);
  int64_t restore_latest(serialize::CheckpointStore& store);

 private:
  float clip_gradients();
  core::Recompute agree_recompute();
  serialize::NamedTensors state_items() const;
  void load_state_items(const serialize::NamedTensors& items);

  model::ModelConfig cfg_;
  TrainerOptions opts_;
  comm::Comm world_;
  std::unique_ptr<pipeline::PipelineEngine> engine_;
  std::unique_ptr<optim::Adam> adam_;
  std::unique_ptr<optim::Sgd> sgd_;
  std::unique_ptr<memory::PressureMonitor> monitor_;
  std::unique_ptr<memory::RecomputeGovernor> governor_;
  int64_t iteration_ = 0;
};

// --- elastic training (DESIGN.md §10) ----------------------------------
// run_resilient wraps the plain Trainer loop in the recovery protocol:
// on any failure the rank poisons its world (propagating the root
// cause), meets the surviving ranks at the Rendezvous for a fresh
// communicator, restores the last verified checkpoint generation, and
// replays forward. Losses of a
// recovered run are bit-identical to an uninterrupted one.

struct ResilientOptions {
  std::string ckpt_dir;        // CheckpointStore directory (required)
  int64_t ckpt_every = 1;      // commit a generation every N steps
  int max_restarts = 8;        // per-run restart budget
  int keep_generations = 4;    // CheckpointStore retention window
  bool log = true;             // rank-0 recovery transcript on stderr
};

struct ResilientResult {
  // Per-step scalar log, not tensor data; later attempts overwrite
  // replayed entries.
  std::vector<float> losses;  // lint:allow(raw-storage)
  int restarts = 0;
  int64_t steps_replayed = 0;  // work redone after restores (overhead metric)
  std::vector<std::string> failure_reasons;  // root cause per restart
  std::vector<int64_t> restored_gens;        // generation restored per restart
};

// Body of one rank thread (world size must be cfg.t * cfg.p; `rank` is
// this thread's stable world rank across restarts). Arms the fault
// plane from MLS_FAULT_PLAN on entry. Throws after max_restarts
// consecutive failures, failing the rendezvous so peers unwind too.
ResilientResult run_resilient(const model::ModelConfig& cfg,
                              fault::Rendezvous& rdv, int rank,
                              const TrainerOptions& topts,
                              const ResilientOptions& ropts,
                              const std::vector<std::vector<data::Batch>>& steps);

}  // namespace mls::train
