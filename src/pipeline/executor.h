// PipelineEngine: numeric pipeline-parallel training over the simulated
// multi-rank substrate.
//
// A world of t·p ranks is split into tensor-parallel groups (t ranks,
// collectives) × pipeline groups (p ranks, point-to-point). Each
// pipeline rank owns m model chunks (m > 1 = interleaved schedule);
// virtual stage v = chunk·p + rank runs layers [v·L/(p·m), (v+1)·L/(p·m)).
//
// Implements, beyond the schedules themselves:
//  * Appendix B — output-tensor deallocation: a stage's output is
//    redundant with the next stage's input, so its storage is released
//    right after the send (the Fig 9 optimization).
//  * Appendix C — microbatch-level activation recomputation: store all
//    activations for as many in-flight microbatches as fit in the
//    memory budget; checkpoint the rest.
#pragma once

#include <map>
#include <memory>

#include "model/gpt.h"
#include "pipeline/schedule.h"

namespace mls::pipeline {

struct PipelineOptions {
  Schedule schedule = Schedule::k1F1B;
  // Appendix B optimization (on by default, as in all paper results).
  bool deallocate_outputs = true;
  // Appendix C: device-memory budget (bytes) for stored activations;
  // -1 disables microbatch-level recomputation.
  int64_t microbatch_store_budget = -1;
  // src/runtime overlap: run backward tp collectives nonblocking with
  // attention-core recompute prefetched into their windows, and issue
  // stage-boundary p2p sends as isend (drained before the iteration's
  // final syncs). Off by default; numerics are unchanged either way.
  bool overlap_recompute = false;
};

struct IterationStats {
  float loss = 0;                        // mean loss (replicated to all ranks)
  int64_t peak_activation_bytes = 0;     // this rank's tracker peak
  int64_t microbatches_stored_full = 0;  // Appendix C: forwards run w/o ckpt
  int64_t microbatches_checkpointed = 0;
};

class PipelineEngine {
 public:
  // `world` must have size cfg.t * cfg.p and is split internally;
  // world rank = pp_rank * t + tp_rank.
  PipelineEngine(const model::ModelConfig& cfg, comm::Comm& world,
                 PipelineOptions opts = {});

  // Runs one training iteration (forward+backward for every microbatch,
  // per the schedule) and leaves gradients accumulated in the params.
  // tokens/targets: one [s*b] vector per microbatch.
  IterationStats run_iteration(const std::vector<std::vector<int64_t>>& tokens,
                               const std::vector<std::vector<int64_t>>& targets,
                               int64_t iteration = 0);

  std::vector<ag::Var> params() const;
  void zero_grads();

  int pp_rank() const { return pp_.rank(); }
  int pp_size() const { return pp_.size(); }
  // The tensor-parallel communicator (its TrafficStats accumulate all
  // f/f̄/g/ḡ collective traffic issued by this rank's models).
  comm::Comm& tp_comm() { return tp_; }
  comm::Comm& pp_comm() { return pp_; }
  comm::Comm& dp_comm() { return dp_; }
  int dp_rank() const { return dp_.rank(); }
  model::GPTModel& chunk_model(int c) { return *chunks_[static_cast<size_t>(c)]; }
  int num_chunks() const { return static_cast<int>(chunks_.size()); }

  // Memory-pressure plane: the recompute-escalation governor switches
  // the recompute rung between iterations — never mid-schedule, so
  // every microbatch of one iteration runs one rung. Checkpoint replay
  // is bit-exact, so this changes memory/time, not the loss.
  void set_recompute(core::Recompute rc) { cfg_.recompute = rc; }
  core::Recompute recompute() const { return cfg_.recompute; }

 private:
  int virtual_stage(int chunk) const { return chunk * cfg_.p + pp_.rank(); }
  int rank_of_stage(int v) const { return v % cfg_.p; }
  int fwd_tag(int boundary, int mb) const;
  int bwd_tag(int boundary, int mb) const;
  void sync_tied_word_embeddings();

  model::ModelConfig cfg_;
  PipelineOptions opts_;
  comm::Comm tp_, pp_, dp_;
  std::vector<std::unique_ptr<model::GPTModel>> chunks_;
  int last_stage_;
};

}  // namespace mls::pipeline
