#include "serve/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/units.h"

namespace mls::serve {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  p = std::min(1.0, std::max(0.0, p));
  const auto idx = static_cast<size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(), samples.begin() + static_cast<int64_t>(idx),
                   samples.end());
  return samples[idx];
}

ServeReport ServeReport::build(const std::string& label,
                               const std::vector<Completion>& completions,
                               const ContinuousBatchScheduler& scheduler,
                               const memory::AllocStats& arena,
                               double wall_s) {
  const SchedStats& sched = scheduler.stats();
  const KVStats& kv = scheduler.kv_stats();
  ServeReport r;
  r.label = label;
  r.requests = static_cast<int64_t>(completions.size());
  r.completed = sched.completed;
  r.overflowed = sched.overflowed;
  r.rejected = sched.rejected;
  r.timed_out = sched.timed_out;
  r.shed = sched.shed;
  r.steps = sched.steps;
  r.preemptions = sched.preemptions;
  r.pressure_preemptions = sched.pressure_preemptions;
  r.throttled_steps = sched.throttled_steps;
  r.kv_budget_tokens = scheduler.config().kv_budget_tokens;
  r.mem_budget_bytes = scheduler.config().mem_budget_bytes;
  r.wall_s = wall_s;
  r.tokens_generated = sched.tokens_generated;
  r.rows_processed = sched.rows_processed;
  if (wall_s > 0) {
    r.gen_tokens_per_s = static_cast<double>(sched.tokens_generated) / wall_s;
    r.total_tokens_per_s = static_cast<double>(sched.rows_processed) / wall_s;
  }

  std::vector<double> intervals;
  std::vector<double> first_tokens;
  double interval_sum = 0;
  for (const Completion& c : completions) {
    if (c.reason == FinishReason::kRejected) continue;
    if (c.generated() > 0) first_tokens.push_back(c.first_token_s);
    for (double d : c.token_intervals_s) {
      intervals.push_back(d);
      interval_sum += d;
    }
  }
  r.token_p50_s = percentile(intervals, 0.50);
  r.token_p99_s = percentile(intervals, 0.99);
  r.token_mean_s = intervals.empty()
                       ? 0
                       : interval_sum / static_cast<double>(intervals.size());
  r.first_token_p50_s = percentile(first_tokens, 0.50);
  r.first_token_p99_s = percentile(first_tokens, 0.99);

  r.batch_mean = sched.steps == 0
                     ? 0
                     : sched.batch_rows_sum / static_cast<double>(sched.steps);
  r.batch_max = sched.max_batch_rows;

  r.kv_reserved_peak_bytes = kv.reserved_peak;
  r.kv_used_peak_bytes = kv.used_peak;
  r.kv_worst_case_peak_bytes = kv.worst_case_peak;
  r.kv_waste_mean = sched.steps == 0
                        ? 0
                        : sched.kv_waste_sum / static_cast<double>(sched.steps);
  r.kv_waste_final = kv.waste();
  r.kv_reserve_failures = kv.reserve_failures;
  r.arena = arena;
  return r;
}

std::string ServeReport::text() const {
  std::ostringstream os;
  char buf[160];
  os << "serve report (" << label << "):\n";
  std::snprintf(buf, sizeof(buf),
                "  requests %lld done (%lld completed, %lld overflow, %lld "
                "rejected) in %lld steps, %.2fs wall\n",
                static_cast<long long>(requests),
                static_cast<long long>(completed),
                static_cast<long long>(overflowed),
                static_cast<long long>(rejected),
                static_cast<long long>(steps), wall_s);
  os << buf;
  if (timed_out + shed + throttled_steps + pressure_preemptions > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  pressure: %lld timed out, %lld shed, %lld throttled "
                  "steps, %lld watermark preemptions\n",
                  static_cast<long long>(timed_out),
                  static_cast<long long>(shed),
                  static_cast<long long>(throttled_steps),
                  static_cast<long long>(pressure_preemptions));
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  throughput: %.0f gen tok/s (%.0f incl. prefill), batch "
                "mean %.1f max %lld, %lld preemptions\n",
                gen_tokens_per_s, total_tokens_per_s, batch_mean,
                static_cast<long long>(batch_max),
                static_cast<long long>(preemptions));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  latency: per-token p50 %.3fms p99 %.3fms mean %.3fms | "
                "first-token p50 %.3fms p99 %.3fms\n",
                token_p50_s * 1e3, token_p99_s * 1e3, token_mean_s * 1e3,
                first_token_p50_s * 1e3, first_token_p99_s * 1e3);
  os << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  kv: reserved peak %s, used peak %s, waste mean %.1f%% (final "
      "%.1f%%), %lld reserve failures\n",
      format_bytes(static_cast<double>(kv_reserved_peak_bytes)).c_str(),
      format_bytes(static_cast<double>(kv_used_peak_bytes)).c_str(),
      kv_waste_mean * 100.0, kv_waste_final * 100.0,
      static_cast<long long>(kv_reserve_failures));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  kv worst case: a whole-sequence cache would peak at %s\n",
                format_bytes(static_cast<double>(kv_worst_case_peak_bytes))
                    .c_str());
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  arena: physical peak %s, fragmentation %.1f%%",
                format_bytes(static_cast<double>(arena.physical_peak)).c_str(),
                arena.fragmentation() * 100.0);
  os << buf;
  return os.str();
}

std::string ServeReport::json() const {
  std::ostringstream os;
  os << "{\"label\":\"" << label << "\",\"requests\":" << requests
     << ",\"completed\":" << completed << ",\"overflowed\":" << overflowed
     << ",\"rejected\":" << rejected << ",\"timed_out\":" << timed_out
     << ",\"shed\":" << shed << ",\"steps\":" << steps
     << ",\"preemptions\":" << preemptions
     << ",\"pressure_preemptions\":" << pressure_preemptions
     << ",\"throttled_steps\":" << throttled_steps
     << ",\"kv_budget_tokens\":" << kv_budget_tokens
     << ",\"mem_budget_bytes\":" << mem_budget_bytes
     << ",\"wall_s\":" << wall_s
     << ",\"tokens_generated\":" << tokens_generated
     << ",\"rows_processed\":" << rows_processed
     << ",\"gen_tokens_per_s\":" << gen_tokens_per_s
     << ",\"total_tokens_per_s\":" << total_tokens_per_s
     << ",\"token_p50_ms\":" << token_p50_s * 1e3
     << ",\"token_p99_ms\":" << token_p99_s * 1e3
     << ",\"token_mean_ms\":" << token_mean_s * 1e3
     << ",\"first_token_p50_ms\":" << first_token_p50_s * 1e3
     << ",\"first_token_p99_ms\":" << first_token_p99_s * 1e3
     << ",\"batch_mean\":" << batch_mean << ",\"batch_max\":" << batch_max
     << ",\"kv_reserved_peak_bytes\":" << kv_reserved_peak_bytes
     << ",\"kv_used_peak_bytes\":" << kv_used_peak_bytes
     << ",\"kv_worst_case_peak_bytes\":" << kv_worst_case_peak_bytes
     << ",\"kv_waste_mean\":" << kv_waste_mean
     << ",\"kv_waste_final\":" << kv_waste_final
     << ",\"kv_reserve_failures\":" << kv_reserve_failures
     << ",\"arena\":" << arena.json() << "}";
  return os.str();
}

}  // namespace mls::serve
