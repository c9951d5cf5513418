// Shared types of the perfbench program: run options, the result a
// workload hands back to main(), and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON (traced runs only)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run produced. `metrics` is the final JSON line's
// metric set (end-to-end untraced, per-layer traced); `report` holds
// every other figure, printed as "# name = value unit" lines.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<Metric> report;

  // One correctness check: counts as attempted, and as failed unless ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void metric(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
  void note(const std::string& name, double v, const std::string& unit) {
    report.push_back({name, v, unit});
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest of p99 / p95 / p90 / p50 that leaves at least ten samples
// beyond it; returns the quantile and stores the chosen level in *level.
inline double tail(const std::vector<double>& v, double* level) {
  for (double q : {0.99, 0.95, 0.90}) {
    if ((1.0 - q) * static_cast<double>(v.size()) >= 10.0) {
      *level = q;
      return quantile(v, q);
    }
  }
  *level = 0.5;
  return quantile(v, 0.5);
}

// Workload entry points (train.cpp, serve.cpp).
Result run_train(const Options& o);
Result run_serve(const Options& o);

}  // namespace perfbench
