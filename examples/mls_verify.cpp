// mls-verify: offline plan verifier (DESIGN.md §12).
//
// Records the complete per-rank collective schedule of a training
// iteration (and the serve decode loop) from one real run of the
// runtime at the tiny preset's shapes, then proves three properties:
//
//   1. schedule  — every rank of every group issues the same collective
//                  sequence;
//   2. deadlock  — the happens-before graph over collectives and
//                  send/recv pairs admits a full execution;
//   3. budget    — the config's Table-2 activation bytes, model-state
//                  bytes, KV bytes/token and per-iteration wire traffic.
//
// Modes:
//   mls_verify                 verify one representative config, verbose
//   mls_verify --all           sweep the config grid, write a JSON
//                              report (--report=PATH), exit 1 on any
//                              violation
//   mls_verify --demo-failure  verify a deliberately mis-planned
//                              schedule and show the diagnostic
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ledger.h"
#include "analysis/static/budget.h"
#include "analysis/static/record.h"
#include "analysis/static/verify.h"
#include "core/env.h"
#include "memory/activation_model.h"
#include "model/config.h"

namespace {

using mls::model::ModelConfig;
using mls::verify::Plan;
using mls::verify::StaticBudget;
using mls::verify::Violation;

using mls::core::recompute_name;  // core/env.h

std::string config_label(const ModelConfig& cfg) {
  std::ostringstream os;
  os << "t=" << cfg.t << " p=" << cfg.p << " d=" << cfg.d << " m="
     << cfg.interleave_m << " sp=" << (cfg.sequence_parallel ? 1 : 0)
     << " plan=" << mls::core::plan_kind_name(cfg.parallel_plan)
     << " rc=" << recompute_name(cfg.recompute);
  return os.str();
}

int64_t plan_events(const Plan& plan) {
  int64_t n = 0;
  for (const auto& prog : plan.ranks) n += static_cast<int64_t>(prog.size());
  return n;
}

// --- JSON emission (hand-rolled; report values are numbers and short
// strings, so escaping only needs the control/quote/backslash cases). ---

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct ConfigReport {
  ModelConfig cfg;
  int64_t train_events = 0;
  int64_t decode_events = 0;
  size_t groups = 0;
  StaticBudget budget;
  std::vector<Violation> violations;
};

void write_json(const std::string& path,
                const std::vector<ConfigReport>& reports) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "mls-verify: cannot write report to " << path << "\n";
    return;
  }
  out << "{\n  \"tool\": \"mls-verify\",\n  \"configs\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const ConfigReport& r = reports[i];
    out << "    {\n"
        << "      \"config\": {\"t\": " << r.cfg.t << ", \"p\": " << r.cfg.p
        << ", \"d\": " << r.cfg.d << ", \"m\": " << r.cfg.interleave_m
        << ", \"sequence_parallel\": "
        << (r.cfg.sequence_parallel ? "true" : "false")
        << ", \"plan\": \"" << mls::core::plan_kind_name(r.cfg.parallel_plan)
        << "\", \"recompute\": \"" << recompute_name(r.cfg.recompute)
        << "\"},\n"
        << "      \"world_size\": " << r.cfg.t * r.cfg.p * r.cfg.d << ",\n"
        << "      \"groups\": " << r.groups << ",\n"
        << "      \"train_events\": " << r.train_events << ",\n"
        << "      \"decode_events\": " << r.decode_events << ",\n"
        << "      \"budget\": {\n"
        << "        \"technique\": \""
        << mls::memory::technique_name(r.budget.technique) << "\",\n"
        << "        \"act_bytes_per_layer\": " << r.budget.act_bytes_per_layer
        << ",\n"
        << "        \"total_first_stage\": " << r.budget.total_first_stage
        << ",\n"
        << "        \"model_state_bytes\": " << r.budget.model_state_bytes
        << ",\n"
        << "        \"kv_bytes_per_token\": " << r.budget.kv_bytes_per_token
        << ",\n"
        << "        \"train_wire_bytes\": " << r.budget.train_wire_bytes
        << "\n      },\n"
        << "      \"violations\": [";
    for (size_t v = 0; v < r.violations.size(); ++v) {
      out << (v ? ", " : "") << "{\"check\": \""
          << json_escape(r.violations[v].check) << "\", \"group\": \""
          << json_escape(r.violations[v].group) << "\", \"message\": \""
          << json_escape(r.violations[v].message) << "\"}";
    }
    out << "]\n    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Verify one config end to end: record train + decode, run all checks.
ConfigReport verify_config(const ModelConfig& cfg) {
  ConfigReport r;
  r.cfg = cfg;
  const Plan train = mls::verify::record_train_iteration(
      cfg, cfg.interleave_m > 1 ? mls::pipeline::Schedule::kInterleaved1F1B
                                : mls::pipeline::Schedule::k1F1B);
  r.train_events = plan_events(train);
  r.groups = train.groups.size();
  r.violations = mls::verify::verify_plan(train);
  r.budget = mls::verify::compute_budget(cfg, train);
  if (cfg.t > 1) {
    const Plan decode = mls::verify::record_decode(cfg, /*steps=*/2,
                                                   /*rows=*/2,
                                                   /*samples=*/2);
    r.decode_events = plan_events(decode);
    for (auto& v : mls::verify::verify_plan(decode)) {
      r.violations.push_back(std::move(v));
    }
  }
  return r;
}

// The sweep grid mirrors examples/config_search.cpp at tiny scale:
// every (t, p, d, m, sp, recompute) combination the tiny preset admits.
std::vector<ModelConfig> sweep_grid() {
  std::vector<ModelConfig> out;
  for (int t : {1, 2, 4}) {
    for (int p : {1, 2}) {
      for (int d : {1, 2}) {
        for (int m : {1, 2}) {
          if (m > 1 && p == 1) continue;  // interleaving needs a pipeline
          for (int sp : {0, 1}) {
            if (sp && t == 1) continue;  // SP is a tp-group technique
            // Plan axis: kAuto covers TP and TP+SP; the folded plan
            // rides the SP arm (it is sequence-sharded by definition).
            std::vector<mls::core::PlanKind> plans = {
                mls::core::PlanKind::kAuto};
            if (sp) plans.push_back(mls::core::PlanKind::kFoldedTsp);
            for (auto plan : plans) {
              for (auto rc : {mls::core::Recompute::kNone,
                              mls::core::Recompute::kSelective,
                              mls::core::Recompute::kFull}) {
                ModelConfig cfg = ModelConfig::tiny(t, /*layers=*/4);
                cfg.p = p;
                cfg.d = d;
                cfg.interleave_m = m;
                cfg.sequence_parallel = sp != 0;
                cfg.set_plan(plan);
                cfg.recompute = rc;
                // 4 microbatches per replica: divisible by p for the
                // interleaved schedule, small enough to stay fast.
                cfg.global_batch = static_cast<int64_t>(cfg.b) * d * 4;
                if (cfg.a % t != 0 || cfg.v % t != 0) continue;
                if (cfg.L % p != 0 ||
                    cfg.L % (static_cast<int64_t>(p) * m) != 0) {
                  continue;
                }
                if (sp && cfg.s % t != 0) continue;
                if (t * p * d > 16) continue;
                cfg.validate();
                out.push_back(cfg);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

int run_all(const std::string& report_path) {
  const std::vector<ModelConfig> grid = sweep_grid();
  std::vector<ConfigReport> reports;
  int64_t total_events = 0;
  int bad = 0;
  for (const ModelConfig& cfg : grid) {
    ConfigReport r = verify_config(cfg);
    total_events += r.train_events + r.decode_events;
    if (!r.violations.empty()) {
      ++bad;
      std::cout << "FAIL  " << config_label(cfg) << "\n";
      for (const Violation& v : r.violations) {
        std::cout << "  [" << v.check << "] " << v.message << "\n";
      }
    }
    reports.push_back(std::move(r));
  }
  write_json(report_path, reports);
  std::cout << "mls-verify: " << grid.size() << " configs, " << total_events
            << " recorded events, " << bad << " with violations\n"
            << "report: " << report_path << "\n";
  return bad == 0 ? 0 : 1;
}

int run_single() {
  ModelConfig cfg = ModelConfig::tiny(2, /*layers=*/4);
  cfg.p = 2;
  cfg.sequence_parallel = true;
  cfg.recompute = mls::core::Recompute::kSelective;
  cfg.global_batch = static_cast<int64_t>(cfg.b) * cfg.d * 4;
  cfg.validate();

  std::cout << "mls-verify: " << config_label(cfg) << " (world "
            << cfg.t * cfg.p * cfg.d << ", " << cfg.microbatches()
            << " microbatches)\n";
  const ConfigReport r = verify_config(cfg);
  const Plan train = mls::verify::record_train_iteration(cfg);
  std::cout << "  recorded " << r.train_events << " train events + "
            << r.decode_events << " decode events across " << r.groups
            << " groups:\n";
  for (const auto& g : train.groups) {
    std::cout << "    " << g.name << " (" << g.size() << " ranks, "
              << train.expected_records(g.name, 0).size()
              << " events on rank 0)\n";
  }
  std::cout << "  schedule check: "
            << (r.violations.empty() ? "all ranks agree" : "FAILED") << "\n"
            << "  deadlock check: "
            << (r.violations.empty() ? "schedule admits a full execution"
                                     : "FAILED")
            << "\n"
            << "  budget ["
            << mls::memory::technique_name(r.budget.technique)
            << "]: " << r.budget.act_bytes_per_layer << " act B/layer, "
            << r.budget.total_first_stage << " B first stage, "
            << r.budget.model_state_bytes << " B model state, "
            << r.budget.kv_bytes_per_token << " KV B/token, "
            << r.budget.train_wire_bytes << " wire B/iter\n";
  // Pressure plane: with MLS_MEM_BUDGET_BYTES set, predict offline
  // whether this config trips the watermarks and where the escalation
  // governor would settle.
  const int64_t mem_budget =
      mls::core::Env::integer("MLS_MEM_BUDGET_BYTES", -1);
  if (mem_budget > 0) {
    const auto forecast = mls::verify::forecast_pressure(
        cfg, mem_budget, mls::core::Env::real("MLS_MEM_SOFT_PCT", 0.80),
        mls::core::Env::real("MLS_MEM_HARD_PCT", 0.95));
    std::cout << "  " << forecast.text() << "\n";
  }
  for (const Violation& v : r.violations) {
    std::cout << "  [" << v.check << "] " << v.message << "\n";
  }
  std::cout << (r.violations.empty() ? "OK\n" : "VIOLATIONS FOUND\n");
  return r.violations.empty() ? 0 : 1;
}

// A deliberately broken plan: rank 0 runs with sequence parallelism,
// rank 1 without — the classic one-rank-flag-drift bug.
// The verifier names both call sites.
int run_demo_failure() {
  Plan plan(2);
  plan.add_group("world", {0, 1});
  mls::verify::SymComm r0 = plan.comm("world", 0);
  mls::verify::SymComm r1 = plan.comm("world", 1);
  const int64_t n_full = 16 * 2 * 32;  // s*b*h of the tiny config
  {
    mls::analysis::SiteGuard site("ḡ(scatter_to_sp).fwd");
    r0.reduce_scatter(n_full, 0, mls::Dtype::F16);
  }
  {
    mls::analysis::SiteGuard site("f̄(reduce_from_tp).fwd");
    r1.all_reduce(n_full, mls::Dtype::F16);
  }
  std::cout << "mls-verify --demo-failure: one rank traced with SP, one "
               "without\n\n";
  const auto violations = mls::verify::verify_plan(plan);
  for (const Violation& v : violations) {
    std::cout << "[" << v.check << "] " << v.message << "\n";
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  bool demo_failure = false;
  // Default under build/ so routine runs never litter the repo root;
  // the tracked baseline at the root is regenerated with an explicit
  // --report=mls_verify_report.json.
  std::string report_path = "build/mls_verify_report.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      all = true;
    } else if (arg == "--demo-failure") {
      demo_failure = true;
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::strlen("--report="));
    } else {
      std::cerr << "usage: mls_verify [--all] [--demo-failure] "
                   "[--report=PATH]\n";
      return 2;
    }
  }
  if (demo_failure) return run_demo_failure();
  if (all) return run_all(report_path);
  return run_single();
}
