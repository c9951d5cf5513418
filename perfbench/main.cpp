// perfbench: the repository's wall-clock benchmark.
//
//   mls_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <path>]
//
// Runs one workload with its environment pinned (every MLS_* variable
// cleared, MLS_KERNEL_THREADS set per workload), prints report lines
// ("# name = value unit") and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones and write their spans as Chrome trace-event JSON.
// Exits 1 if a correctness check failed, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "probes.h"
#include "tensor/kernels.h"
#include "trace.h"

extern char** environ;

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  int ranks;
  int kernel_threads;  // ranks x threads <= 4 cores
  Result (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"train_sp_selective", 2, 2, run_train},
    {"train_pipeline_full", 4, 1, run_train},
    {"serve_paged_t2", 2, 1, run_serve},
};

// Clears every MLS_* knob (fault plans, budgets, analyzer, allocator
// and serve overrides, plan selection) and pins the kernel threads.
// Runs before any thread starts, so setenv/unsetenv are safe.
void pin_environment(int kernel_threads) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "MLS_", 4) == 0 && eq != nullptr) {
      names.emplace_back(*e, static_cast<size_t>(eq - *e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("MLS_KERNEL_THREADS", std::to_string(kernel_threads).c_str(), 1);
}

void print_metrics_json(const Result& r, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : -1.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "mls_perfbench: %s\nusage: mls_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (o.workload == c.name) w = &c;
  }
  if (w == nullptr) return usage(("unknown workload '" + o.workload + "'").c_str());
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  pin_environment(w->kernel_threads);
  if (o.trace) Tracer::get().enable(w->ranks + 1);

  const double probe_start_ms = host_probe_ms();
  Result r;
  bool crashed = false;
  try {
    Span root("workload");
    r = w->run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mls_perfbench: %s failed: %s\n", w->name, e.what());
    r.check(false, std::string("run threw: ") + e.what());
    crashed = true;
  }
  const double probe_end_ms = host_probe_ms();

  std::printf("# workload = %s\n# seed = %llu\n# trace = %d\n", w->name,
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  std::printf("# nproc = %u count\n# ranks = %d count\n",
              std::thread::hardware_concurrency(), w->ranks);
  std::printf("# MLS_KERNEL_THREADS = %s count\n# kernel_threads_resolved = %d count\n",
              std::getenv("MLS_KERNEL_THREADS"), mls::kernels::threads());
  std::printf("# host_probe_start_ms = %.3f ms\n# host_probe_end_ms = %.3f ms\n",
              probe_start_ms, probe_end_ms);
  for (const Metric& m : r.report) {
    std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# failed_frac = %.6g ratio\n",
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0);
  for (const std::string& f : r.failures) std::printf("# FAILED: %s\n", f.c_str());
  if (o.trace && !o.trace_out.empty()) {
    Tracer::get().write_chrome_json(o.trace_out);
    std::printf("# trace_spans = %zu count\n# trace_file = %s\n",
                Tracer::get().span_count(), o.trace_out.c_str());
  }
  if (crashed) r.metrics.clear();
  if (r.attempted == 0) r.attempted = 1;
  print_metrics_json(r, r.failed == 0);
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
