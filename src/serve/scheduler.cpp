#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

namespace mls::serve {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// MLS_MEM_BUDGET_BYTES caps the pool at construction: the token budget
// is clamped so the cache's logical KV bytes can never exceed the byte
// ceiling (floored at one block — a pool that can hold nothing would
// reject everything). This is how "driven past the KV budget" stays a
// scheduling problem (throttle, preempt, shed) instead of an
// allocation failure.
// Validates first: the cache and engine are built from the clamped
// config in the initializer list, and a zero block size would divide by
// zero there before the constructor body could reject it.
ServeConfig clamp_to_budget(ServeConfig cfg, const model::GPTModel& model) {
  cfg.validate();
  if (cfg.mem_budget_bytes >= 0) {
    const KVLayout lo = kv_layout(model.config(), model.env().tp_size(),
                                  cfg.block_tokens);
    const int64_t cap = std::max(
        cfg.mem_budget_bytes / lo.logical_bytes_per_token(), cfg.block_tokens);
    cfg.kv_budget_tokens = std::min(cfg.kv_budget_tokens, cap);
  }
  return cfg;
}

}  // namespace

const char* finish_reason_name(FinishReason r) {
  switch (r) {
    case FinishReason::kCompleted: return "completed";
    case FinishReason::kContextOverflow: return "context_overflow";
    case FinishReason::kRejected: return "rejected";
    case FinishReason::kTimedOut: return "timed_out";
    case FinishReason::kShed: return "shed";
  }
  return "?";
}

ContinuousBatchScheduler::ContinuousBatchScheduler(model::GPTModel& model,
                                                   const ServeConfig& cfg)
    : model_(model),
      cfg_(clamp_to_budget(cfg, model)),
      cache_(kv_layout(model.config(), model.env().tp_size(),
                       cfg_.block_tokens),
             cfg_.kv_budget_tokens),
      engine_(model) {
  model_.set_inference(true);
  model_.set_microbatch(0);
}

ContinuousBatchScheduler::~ContinuousBatchScheduler() {
  model_.set_inference(false);
}

void ContinuousBatchScheduler::submit(Request r) {
  Sequence s;
  s.tokens = r.prompt;
  s.req = std::move(r);
  s.submitted_step = stats_.steps;
  s.submit_time = now_s();
  queue_.push_back(std::move(s));
}

int64_t ContinuousBatchScheduler::kv_target(const Request& r) const {
  const int64_t fed =
      static_cast<int64_t>(r.prompt.size()) + std::max<int64_t>(
          r.max_new_tokens - 1, 0);
  return std::min(fed, engine_.layout().max_ctx);
}

Completion ContinuousBatchScheduler::retire(Sequence&& s,
                                            FinishReason reason) {
  Completion c;
  c.request = std::move(s.req);
  c.tokens = std::move(s.tokens);
  c.reason = reason;
  c.submitted_step = s.submitted_step;
  c.finished_step = stats_.steps;
  c.preemptions = s.preemptions;
  c.queue_s = s.queue_s;
  c.first_token_s = s.first_token_s;
  c.token_intervals_s = std::move(s.intervals);
  switch (reason) {
    case FinishReason::kCompleted: ++stats_.completed; break;
    case FinishReason::kContextOverflow: ++stats_.overflowed; break;
    case FinishReason::kRejected: ++stats_.rejected; break;
    case FinishReason::kTimedOut: ++stats_.timed_out; break;
    case FinishReason::kShed: ++stats_.shed; break;
  }
  return c;
}

void ContinuousBatchScheduler::admit(std::vector<Completion>* done) {
  while (!queue_.empty() &&
         static_cast<int64_t>(running_.size()) < cfg_.max_batch) {
    Sequence& head = queue_.front();
    const int64_t prompt_len = static_cast<int64_t>(head.req.prompt.size());
    if (prompt_len == 0 || prompt_len > engine_.layout().max_ctx ||
        !cache_.fits_alone(kv_target(head.req))) {
      done->push_back(retire(std::move(head), FinishReason::kRejected));
      queue_.pop_front();
      continue;
    }
    if (!cache_.can_admit()) break;  // head-of-line
    Sequence s = std::move(head);
    queue_.pop_front();
    s.kv = cache_.create(kv_target(s.req));
    if (!s.admitted_once) {
      s.admitted_once = true;
      s.queue_s = now_s() - s.submit_time;
      stats_.prompt_tokens += prompt_len;
    }
    ++stats_.admitted;
    running_.push_back(std::move(s));
  }
}

void ContinuousBatchScheduler::relieve_pressure(std::vector<Completion>* done) {
  // Deadlines first: a request that has outlived deadline_steps retires
  // whether queued or mid-decode (a running victim's blocks return to
  // the pool right here, before the watermark check below reads
  // occupancy).
  auto expired = [&](const Sequence& s) {
    return s.req.deadline_steps >= 0 &&
           stats_.steps - s.submitted_step > s.req.deadline_steps;
  };
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (expired(*it)) {
      done->push_back(retire(std::move(*it), FinishReason::kTimedOut));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  for (size_t i = 0; i < running_.size();) {
    if (expired(running_[i])) {
      done->push_back(retire(std::move(running_[i]), FinishReason::kTimedOut));
      running_.erase(running_.begin() + static_cast<int64_t>(i));
    } else {
      ++i;
    }
  }
  // Queue-cap shedding, newest-first: the front holds the oldest
  // submissions and any preempted sequences (whose generated tokens
  // would be wasted work), so overflow drops from the back.
  if (cfg_.max_queue >= 0) {
    while (static_cast<int64_t>(queue_.size()) > cfg_.max_queue) {
      done->push_back(retire(std::move(queue_.back()), FinishReason::kShed));
      queue_.pop_back();
    }
  }
  // Hard KV watermark: evict latest-admitted until back under (the
  // earliest sequence is never the victim, so progress is guaranteed —
  // the same invariant as reservation-time preemption).
  while (cache_.occupancy() > cfg_.hard_pct && running_.size() > 1) {
    preempt_latest();
    ++stats_.pressure_preemptions;
  }
}

void ContinuousBatchScheduler::preempt_latest() {
  MLS_CHECK(!running_.empty());
  Sequence victim = std::move(running_.back());
  running_.pop_back();
  victim.kv.reset();  // blocks return to the pool
  victim.cached = 0;  // re-prefill on re-admission (recompute-on-return)
  ++victim.preemptions;
  ++stats_.preemptions;
  queue_.push_front(std::move(victim));
}

std::vector<Completion> ContinuousBatchScheduler::step() {
  ++stats_.steps;
  std::vector<Completion> done;
  relieve_pressure(&done);
  // Soft watermark: with the pool this full, admitting more sequences
  // would only feed the preemption loop — hold the queue instead and
  // let running sequences drain. (At the 1.0 default this gates only a
  // completely full pool, where admission could not proceed anyway.)
  if (cache_.occupancy() >= cfg_.soft_pct) {
    if (!queue_.empty()) ++stats_.throttled_steps;
  } else {
    admit(&done);
  }
  if (running_.empty()) return done;

  // Reserve this step's KV position for every running sequence before
  // touching the engine; under pressure, evict latest-admitted until
  // the reservation fits. Earliest sequences reserve first, so the one
  // making slowest progress is never starved.
  for (size_t i = 0; i < running_.size();) {
    if (running_[i].kv->reserve(running_[i].cached)) {
      ++i;
      continue;
    }
    // A lone sequence can always reserve: admission guaranteed its
    // worst case fits the pool by itself.
    MLS_CHECK_GT(running_.size(), 1u) << "KV reservation deadlock";
    preempt_latest();
    if (i >= running_.size()) break;  // the victim was running_[i]
  }

  std::vector<DecodeRow> rows;
  rows.reserve(running_.size());
  for (Sequence& s : running_) {
    DecodeRow r;
    r.token = s.tokens[static_cast<size_t>(s.cached)];
    r.position = s.cached;
    r.kv = s.kv.get();
    r.sample = s.cached == static_cast<int64_t>(s.tokens.size()) - 1;
    r.temperature = s.req.temperature;
    r.seed = s.req.seed;
    r.sample_step = s.generated;
    rows.push_back(r);
  }
  if (step_hook_) step_hook_(stats_.steps - 1);
  const std::vector<int64_t> sampled = engine_.step(rows);

  const double t = now_s();
  stats_.rows_processed += static_cast<int64_t>(rows.size());
  stats_.batch_rows_sum += static_cast<double>(rows.size());
  stats_.max_batch_rows = std::max(stats_.max_batch_rows,
                                   static_cast<int64_t>(rows.size()));
  stats_.kv_waste_sum += cache_.stats().waste();

  std::vector<Sequence> keep;
  keep.reserve(running_.size());
  for (size_t i = 0; i < running_.size(); ++i) {
    Sequence& s = running_[i];
    ++s.cached;
    bool hit_stop = false;
    if (sampled[i] >= 0) {
      s.tokens.push_back(sampled[i]);
      ++s.generated;
      ++stats_.tokens_generated;
      hit_stop = std::find(s.req.stop_tokens.begin(), s.req.stop_tokens.end(),
                           sampled[i]) != s.req.stop_tokens.end();
      if (!s.first_token_done) {
        s.first_token_done = true;
        s.first_token_s = t - s.submit_time;
      } else {
        s.intervals.push_back(t - s.last_token_time);
      }
      s.last_token_time = t;
    }
    if (hit_stop || s.generated >= s.req.max_new_tokens) {
      done.push_back(retire(std::move(s), FinishReason::kCompleted));
    } else if (s.cached >= engine_.layout().max_ctx) {
      // The next feed position would fall outside the trained window —
      // the batch analogue of generate()'s ContextOverflowError.
      done.push_back(retire(std::move(s), FinishReason::kContextOverflow));
    } else {
      keep.push_back(std::move(s));
    }
  }
  running_ = std::move(keep);
  return done;
}

}  // namespace mls::serve
