// ContinuousBatchScheduler: token-granularity continuous batching over
// the paged KV cache and the incremental decode engine.
//
// State machine (DESIGN.md §11): a request is QUEUED until admission,
// RUNNING while it holds a SequenceKV, and leaves through one of the
// FinishReasons. Prefill is not a separate phase — an admitted sequence
// feeds one token per step through the same decode path until its
// frontier, so a step's batch freely mixes sequences prefilling their
// prompts with sequences decoding (what makes the batching
// "continuous": admissions and retirements happen between any two
// steps, never waiting for a batch to drain).
//
// Preemption: when the paged pool runs dry mid-step, the latest-
// admitted sequence is evicted — its blocks return to the pool and the
// sequence re-queues at the front with its generated-so-far tokens.
// On re-admission it re-prefills; since sampling is a pure function of
// (seed, step index), the regenerated continuation is identical, so
// preemption changes latency but never output. The earliest-admitted
// sequence is never the victim while others exist, which guarantees
// forward progress; requests whose worst case can never fit alone are
// rejected at admission instead of thrashing forever.
//
// Determinism: every decision (admission, preemption, retirement) is a
// function of step counts and block availability, which evolve
// identically on every TP rank driving the same request stream —
// wall-clock only feeds the latency metrics, never a decision.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "model/gpt.h"
#include "serve/config.h"
#include "serve/decode.h"
#include "serve/kv_cache.h"

namespace mls::serve {

struct Request {
  int64_t id = 0;
  std::vector<int64_t> prompt;
  int64_t max_new_tokens = 16;
  float temperature = 0.0f;  // 0 = greedy (see model::sample_token)
  uint64_t seed = 1;
  // EOS-style early retirement: sampling any of these retires the
  // sequence as kCompleted with the stop token included in the output
  // (matching model::generate with the same stop set). Its KV blocks
  // return to the paged pool the same step, so early finishers free
  // their unused tail for queued requests immediately.
  std::vector<int64_t> stop_tokens;
  // Per-request deadline in scheduler steps: once more than this many
  // steps have elapsed since submission the request retires as
  // kTimedOut (whether still queued or mid-decode), returning its KV
  // blocks that step. < 0 = no deadline. Step-based, not wall-clock, so
  // timeouts fire identically on every rank and every run.
  int64_t deadline_steps = -1;
};

enum class FinishReason {
  kCompleted,        // produced max_new_tokens or sampled a stop token
  kContextOverflow,  // hit the trained sequence length; retired cleanly
                     // (the batch-of-one path throws
                     // model::ContextOverflowError instead)
  kRejected,         // empty/over-long prompt, or can never fit the KV
                     // budget even alone
  kTimedOut,         // Request.deadline_steps elapsed before completion
  kShed,             // dropped newest-first when the queue exceeded
                     // ServeConfig.max_queue (shedding, not crashing)
};

const char* finish_reason_name(FinishReason r);

struct Completion {
  Request request;
  // Prompt + generated tokens — the same vector model::generate()
  // returns for this request.
  std::vector<int64_t> tokens;
  FinishReason reason = FinishReason::kCompleted;
  int64_t submitted_step = 0;
  int64_t finished_step = 0;
  int64_t preemptions = 0;
  double queue_s = 0;        // submit -> first admission
  double first_token_s = 0;  // submit -> first generated token
  // Gaps between consecutive generated tokens (the per-token latency
  // samples behind bench_serve's p50/p99).
  std::vector<double> token_intervals_s;
  int64_t generated() const {
    return static_cast<int64_t>(tokens.size() - request.prompt.size());
  }
};

struct SchedStats {
  int64_t steps = 0;
  int64_t rows_processed = 0;    // token positions fed (prefill + decode)
  int64_t tokens_generated = 0;  // tokens sampled
  int64_t prompt_tokens = 0;     // prompt tokens of admitted requests
  int64_t admitted = 0;
  int64_t preemptions = 0;
  int64_t completed = 0;
  int64_t overflowed = 0;
  int64_t rejected = 0;
  int64_t timed_out = 0;             // deadline expiries
  int64_t shed = 0;                  // queue-cap drops
  int64_t throttled_steps = 0;       // steps admission was soft-gated
                                     // with work waiting
  int64_t pressure_preemptions = 0;  // evictions by the hard watermark
                                     // (subset of `preemptions`)
  int64_t max_batch_rows = 0;
  double batch_rows_sum = 0;  // mean occupancy = batch_rows_sum / steps
  double kv_waste_sum = 0;    // mean KV fragmentation = / steps
};

class ContinuousBatchScheduler {
 public:
  // Puts the model in inference mode for the scheduler's lifetime.
  ContinuousBatchScheduler(model::GPTModel& model, const ServeConfig& cfg);
  ~ContinuousBatchScheduler();

  void submit(Request r);
  // One decode step: admit from the queue, reserve KV (preempting under
  // pressure), run the batched engine step, retire finished sequences.
  // Returns this step's completions (including immediate rejections).
  // Safe to call with nothing running (counts an idle step).
  std::vector<Completion> step();

  bool idle() const { return queue_.empty() && running_.empty(); }
  int64_t current_step() const { return stats_.steps; }
  int64_t in_flight() const {
    return static_cast<int64_t>(queue_.size() + running_.size());
  }
  const SchedStats& stats() const { return stats_; }
  const KVStats& kv_stats() const { return cache_.stats(); }
  const ServeConfig& config() const { return cfg_; }

  // Test hook, called right before each engine step with the step
  // index; lets fault tests throw from inside the serving loop.
  void set_step_hook(std::function<void(int64_t)> hook) {
    step_hook_ = std::move(hook);
  }

 private:
  struct Sequence {
    Request req;
    std::vector<int64_t> tokens;  // prompt + generated so far
    int64_t generated = 0;
    int64_t cached = 0;  // KV positions appended (= next feed position)
    std::unique_ptr<SequenceKV> kv;
    int64_t submitted_step = 0;
    double submit_time = 0;
    int64_t preemptions = 0;
    bool admitted_once = false;
    double queue_s = 0;
    bool first_token_done = false;
    double first_token_s = 0;
    double last_token_time = 0;
    std::vector<double> intervals;
  };

  // Worst-case cached positions for a request: every fed position
  // (prompt + all but the last sampled token), capped at the window.
  int64_t kv_target(const Request& r) const;
  void admit(std::vector<Completion>* done);
  void preempt_latest();
  // Step-entry pressure pass: expire deadlines (queued and running),
  // shed queue overflow newest-first, and preempt back under the hard
  // KV watermark — every way the scheduler gives work up instead of
  // dying, before this step commits to a batch.
  void relieve_pressure(std::vector<Completion>* done);
  Completion retire(Sequence&& s, FinishReason reason);

  model::GPTModel& model_;
  ServeConfig cfg_;
  KVCache cache_;
  DecodeEngine engine_;
  std::deque<Sequence> queue_;     // FIFO; preempted sequences re-queue
                                   // at the front
  std::vector<Sequence> running_;  // admission order
  SchedStats stats_;
  std::function<void(int64_t)> step_hook_;
};

}  // namespace mls::serve
