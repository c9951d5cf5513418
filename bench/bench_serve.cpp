// Serving-plane benchmark: continuous batching over the paged KV cache
// under closed-loop zipfian traffic (src/serve), reporting tokens/s,
// per-token p50/p99 latency, and KV fragmentation — paged block table
// vs the naive per-request contiguous allocator.
//
// Modes:
//   bench_serve              full run: hundreds of concurrent streams,
//                            one ServeReport table per configuration
//   bench_serve --smoke      fast CI run; asserts the paged cache's
//                            reserved peak and fragmentation are no
//                            worse than the naive baseline and that
//                            both emit identical tokens; writes
//                            build/BENCH_serve.json; exit 0/1
//   bench_serve --json[=p]   full run, reports written to p as JSON
//                            (default build/BENCH_serve.json; the
//                            tracked baseline at the repo root is
//                            refreshed with --json=BENCH_serve.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "comm/spmd.h"
#include "common/memtracker.h"
#include "serve/report.h"
#include "serve/traffic.h"

using namespace mls;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

model::ModelConfig bench_model(int64_t s, int64_t h) {
  model::ModelConfig cfg = model::ModelConfig::tiny(1, 4);
  cfg.b = 1;
  cfg.s = s;
  cfg.h = h;
  cfg.dropout_p = 0.0f;
  return cfg;
}

struct RunOut {
  serve::ServeReport report;
  // request id -> prompt+generated tokens (identity checks in --smoke).
  std::map<int64_t, std::vector<int64_t>> tokens;
};

// One serving run on a fresh single-rank world.
RunOut run_world(const std::string& label, const model::ModelConfig& cfg,
                 const serve::ServeConfig& scfg,
                 const serve::TrafficConfig& tcfg) {
  RunOut out;
  spmd::run(1, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    serve::ContinuousBatchScheduler sched(m, scfg);
    serve::ClosedLoopTraffic traffic(tcfg, cfg.v, cfg.s);
    const double t0 = now_s();
    auto completions = serve::run_closed_loop(sched, traffic);
    const double wall = now_s() - t0;
    out.report = serve::ServeReport::build(
        label, completions, sched.stats(), sched.kv_stats(),
        MemoryTracker::instance().allocator_stats(), wall);
    for (auto& comp : completions) {
      out.tokens[comp.request.id] = std::move(comp.tokens);
    }
  });
  return out;
}

void write_json(const std::string& path,
                const std::vector<serve::ServeReport>& reports) {
  std::ofstream f(path);
  f << "{\"bench\":\"serve\",\"runs\":[";
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i) f << ",";
    f << reports[i].json();
  }
  f << "]}\n";
  std::printf("wrote %s (%zu runs)\n", path.c_str(), reports.size());
}

// ----------------------------------------------------------- --smoke
int run_smoke(const std::string& json_path) {
  const model::ModelConfig cfg = bench_model(16, 32);
  serve::TrafficConfig tcfg;
  tcfg.clients = 32;
  tcfg.total_requests = 48;
  tcfg.temperature = 0.7f;

  serve::ServeConfig paged;
  paged.block_tokens = 4;
  paged.kv_budget_tokens = 256;
  paged.max_batch = 16;
  serve::ServeConfig naive = paged;
  naive.paged = false;

  const RunOut p = run_world("paged/smoke", cfg, paged, tcfg);
  const RunOut n = run_world("naive/smoke", cfg, naive, tcfg);
  write_json(json_path, {p.report, n.report});

  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    failures += !ok;
  };
  expect(p.report.completed == tcfg.total_requests,
         "paged run completes every request");
  expect(n.report.completed == tcfg.total_requests,
         "naive run completes every request");
  expect(p.tokens == n.tokens, "paged and naive emit identical tokens");
  expect(p.report.kv_reserved_peak_bytes <= n.report.kv_reserved_peak_bytes,
         "paged reserved peak <= naive reserved peak");
  expect(p.report.kv_waste_mean <= n.report.kv_waste_mean,
         "paged fragmentation <= naive fragmentation");
  expect(p.report.tokens_generated == n.report.tokens_generated,
         "same tokens generated");
  std::printf("bench_serve --smoke: %s\n", failures ? "FAILED" : "passed");
  return failures ? 1 : 0;
}

// --------------------------------------------------------- full run
int run_full(bool json, const std::string& json_path) {
  // Hundreds of concurrent closed-loop streams; prompt and output
  // lengths zipfian up to half the context window.
  const model::ModelConfig cfg = bench_model(64, 64);
  serve::TrafficConfig tcfg;
  tcfg.clients = 256;
  tcfg.total_requests = 768;
  tcfg.temperature = 0.7f;

  // A budget tight enough that admission policy matters: the naive
  // cache must find room for a request's whole worst case up front,
  // the paged cache only for its next block.
  serve::ServeConfig paged;
  paged.block_tokens = 16;
  paged.kv_budget_tokens = 1024;
  paged.max_batch = 64;
  serve::ServeConfig naive = paged;
  naive.paged = false;

  std::vector<serve::ServeReport> reports;
  reports.push_back(run_world("paged", cfg, paged, tcfg).report);
  reports.push_back(run_world("naive", cfg, naive, tcfg).report);

  // Same traffic with a budget nobody saturates: here the peaks
  // separate — the naive cache's worst-case reservations stack up
  // while the block table only ever holds what is cached (rounded up
  // to a block).
  serve::ServeConfig paged_roomy = paged;
  paged_roomy.kv_budget_tokens = 2048;
  serve::ServeConfig naive_roomy = paged_roomy;
  naive_roomy.paged = false;
  reports.push_back(run_world("paged/roomy", cfg, paged_roomy, tcfg).report);
  reports.push_back(run_world("naive/roomy", cfg, naive_roomy, tcfg).report);

  for (const auto& r : reports) std::printf("%s\n\n", r.text().c_str());
  if (json) write_json(json_path, reports);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  std::string json_path = "build/BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (smoke) return run_smoke(json_path);
  return run_full(json, json_path);
}
