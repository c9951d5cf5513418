// Overhead guards for the always-compiled observability planes, timed
// on the real numeric substrate's backward (t=2, selective recompute +
// sequence parallelism).
//
// Every verdict comes from a direct cost: a hook's or record's per-call
// cost, timed on its own, times the calls one backward makes, divided by
// the backward's time. That does not depend on pairing noisy backwards,
// whose quartile spread on a shared host (3–20% here) is wider than
// the 1–2% budgets being guarded.
//
// Section 1 is the hang watchdog and its flight-recorder ledger: the
// ledger's begin + end per comm op (guarded below 2%) and the always-on
// cross-rank entry check per collective (slot write + T-slot compare,
// guarded below 0.1%).
//
// Section 2 is the fault-injection plane: its hooks on every comm op
// (on_comm) and every pool allocation (on_oom("alloc")), disarmed (the
// production state — one atomic load per hook) and armed with an inert
// plan (the locked event scan per hook), each guarded below 1%.
//
// Each section also reports kPairs alternating off/on backwards (the
// per-side medians, quartile spreads and the medians' difference) as a
// cross-check; those lines carry no verdict.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ledger.h"
#include "autograd/engine.h"
#include "comm/entry_check.h"
#include "fault/inject.h"
#include "fault/plan.h"
#include "comm/spmd.h"
#include "memory/pool_allocator.h"
#include "common/check.h"
#include "common/units.h"
#include "model/transformer.h"

using namespace mls;

namespace {

constexpr int kTp = 2;
constexpr int kLayers = 4;
constexpr int kIters = 9;
constexpr int kPairs = 7;  // off/on pairs per overhead guard

model::ModelConfig bench_cfg() {
  model::ModelConfig cfg = model::ModelConfig::tiny(kTp, kLayers);
  cfg.a = 8;
  cfg.h = 128;
  cfg.s = 64;
  cfg.b = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  return cfg;
}

// Collectives and p2p ops between two snapshots of one rank's stats.
int64_t comm_ops_between(const comm::TrafficStats& a,
                         const comm::TrafficStats& b) {
  return (b.all_reduce_count - a.all_reduce_count) +
         (b.all_gather_count - a.all_gather_count) +
         (b.reduce_scatter_count - a.reduce_scatter_count) +
         (b.broadcast_count - a.broadcast_count) +
         (b.p2p_send_count - a.p2p_send_count) +
         (b.p2p_recv_count - a.p2p_recv_count);
}

// The fault-plane hook sites one backward passes on rank 0.
struct HookSites {
  int64_t comm_ops = 0;  // fault::on_comm, one per collective / p2p op
  int64_t allocs = 0;    // fault::on_oom("alloc"), one per pool allocation
};

// allocate() calls on the calling thread's pool so far.
int64_t pool_allocs() {
  return memory::PoolAllocator::this_thread()->stats().allocs;
}

// One fwd+bwd per iteration over kLayers chained layers; only the
// backward is timed. Returns rank 0's min backward wall-clock; if
// `sites` is set, stores the comm ops and pool allocations rank 0 runs
// in one backward.
double measure_backward(HookSites* sites = nullptr) {
  const model::ModelConfig cfg = bench_cfg();
  double bwd_seconds = 0;
  spmd::run(kTp, [&](comm::Comm& c) {
    core::ParallelEnv env = model::make_env(cfg, c);
    Rng master(cfg.seed);
    std::vector<std::unique_ptr<model::TransformerLayer>> layers;
    for (int l = 0; l < kLayers; ++l) {
      layers.push_back(
          std::make_unique<model::TransformerLayer>(env, cfg, l, master));
    }
    Rng drng(5);
    const int64_t s_local = cfg.s / kTp;
    Tensor x0 = Tensor::randn(Shape{{s_local, cfg.b, cfg.h}}, drng);
    Tensor dy = Tensor::full(Shape{{s_local, cfg.b, cfg.h}}, 1.f);

    std::vector<double> times;
    for (int i = -1; i < kIters; ++i) {  // iteration -1 is warmup
      env.microbatch = i + 1;
      ag::Var x(x0.clone(), true);
      ag::Var y = x;
      for (auto& l : layers) y = l->forward(y, env);

      c.barrier();
      const comm::TrafficStats before = c.stats();
      const int64_t allocs_before = pool_allocs();
      const auto t0 = std::chrono::steady_clock::now();
      ag::backward(y, dy);
      const auto t1 = std::chrono::steady_clock::now();
      if (sites && c.rank() == 0) {
        sites->comm_ops = comm_ops_between(before, c.stats());
        sites->allocs = pool_allocs() - allocs_before;
      }
      if (i < 0) continue;  // discard warmup
      times.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    if (c.rank() == 0) {
      // Min over iterations: host noise only ever adds time, so the min
      // is the least disturbed estimate on a busy host.
      bwd_seconds = *std::min_element(times.begin(), times.end());
    }
  });
  return bwd_seconds;
}

// The ledger's per-op cost on the rank thread, timed directly: one
// begin + end per rank. One thread drives both ranks, so no rendezvous
// wait is counted; the watchdog's monitor thread runs off the rank
// threads and is not included. Min over repetitions (host noise only
// adds time).
double ledger_ns_per_op() {
  analysis::Options on;
  on.watchdog = true;
  analysis::Ledger ledger("bench", kTp, on);
  analysis::CommRecord rec;
  rec.kind = analysis::OpKind::kAllGather;
  rec.dtype = 1;
  rec.count = 4096;
  rec.dim = 0;
  constexpr int kOps = 100000;
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) {
      for (int rank = 0; rank < kTp; ++rank) {
        ledger.end(rank, ledger.begin(rank, rec));
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return 1e9 * best / (static_cast<double>(kOps) * kTp);
}

// The entry check's per-collective cost on one rank, timed directly:
// drawing the seq, writing the rank's slot and comparing all T slots
// (comm/entry_check.h). One thread plays every rank, so the barrier
// between the write and the compare, which every collective passes
// anyway, is not counted. Min over repetitions. It is charged to every
// comm op of the backward; p2p ops (none at p=1) skip the check, so
// that share bounds it from above.
double entry_check_ns_per_op() {
  comm::EntryCheck check(kTp);
  const std::string group = "bench";
  analysis::CommRecord rec;
  rec.kind = analysis::OpKind::kAllGather;
  rec.dtype = 1;
  rec.count = 4096;
  rec.dim = 0;
  constexpr int kOps = 100000;
  int64_t mismatches = 0;
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) {
      for (int rank = 0; rank < kTp; ++rank) {
        rec.seq = check.next_seq(rank);
        check.publish(rank, rec);
      }
      for (int rank = 0; rank < kTp; ++rank) {
        mismatches += check.mismatch(group, rec.seq).empty() ? 0 : 1;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  MLS_CHECK_EQ(mismatches, 0);
  return 1e9 * best / (static_cast<double>(kOps) * kTp);
}

// The fault plane's per-call hook costs on one thread, timed directly:
// on_comm (a comm op's entry) and on_oom("alloc") (a pool allocation's).
// Disarmed, each is the inline atomic load; armed with a plan that can
// never fire (a rank and step this bench never reaches), each takes the
// slow path's locked scan of the plan's events. Min over repetitions.
struct HookNs {
  double comm = 0, alloc = 0;
};
HookNs fault_hook_ns() {
  constexpr int kCalls = 100000;
  auto per_call = [&](const auto& hook) {
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) hook();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return 1e9 * best / kCalls;
  };
  int64_t fired = 0;
  const HookNs ns{per_call([] { fault::on_comm("all_gather"); }),
                  per_call([&] { fired += fault::on_oom("alloc") ? 1 : 0; })};
  MLS_CHECK_EQ(fired, 0);
  return ns;
}

// Prints one direct guard line pair: hook costs × sites per backward as
// a share of the backward, and the verdict against `budget`.
bool direct_fault_guard(const char* state, const HookNs& ns,
                        const HookSites& sites, double bwd, double budget) {
  const double share = (ns.comm * static_cast<double>(sites.comm_ops) +
                        ns.alloc * static_cast<double>(sites.allocs)) *
                       1e-9 / bwd;
  std::printf(
      "direct: fault hooks %s: on_comm %.1f ns x %lld comm ops + on_oom "
      "%.1f ns x %lld allocs per backward = %s of the backward\n",
      state, ns.comm, static_cast<long long>(sites.comm_ops), ns.alloc,
      static_cast<long long>(sites.allocs), format_percent(share, 3).c_str());
  const bool ok = share < budget;
  std::printf("%s: the %s fault hooks cost %s %.0f%% of the backward.\n",
              ok ? "OK" : "UNEXPECTED", state, ok ? "under" : "MORE than",
              100.0 * budget);
  return ok;
}

// Median and quartiles (linear interpolation) of one side's samples.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

// kPairs off/on pairs of backwards (measure_on runs the "on" side),
// the side that runs first alternating so drift favours neither.
// Prints both sides and the difference of the medians: a report line
// beside the direct guards, not a verdict.
template <typename MeasureOn>
void paired_report(const char* off_name, const char* on_name,
                   MeasureOn&& measure_on) {
  std::vector<double> off, on;
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 1) on.push_back(measure_on());
    off.push_back(measure_backward());
    if (i % 2 == 0) on.push_back(measure_on());
  }
  const Quartiles qo = quartiles(off), qn = quartiles(on);
  auto spread = [](const Quartiles& q) { return (q.q3 - q.q1) / q.median; };
  auto side = [&](const char* name, const Quartiles& q) {
    std::printf("%-14s median %s   quartiles %s .. %s (spread %.2f%%)\n",
                name, format_time_ms(q.median).c_str(),
                format_time_ms(q.q1).c_str(), format_time_ms(q.q3).c_str(),
                100.0 * spread(q));
  };
  side(off_name, qo);
  side(on_name, qn);
  std::printf(
      "report: the medians differ by %+.2f%% over %d pairs (no verdict; "
      "the direct lines below carry it)\n",
      100.0 * (qn.median - qo.median) / qo.median, kPairs);
}

}  // namespace

int main() {
  std::printf(
      "=== bench_overhead: observability planes on the backward "
      "(t=%d, %d layers, selective+SP) ===\n",
      kTp, kLayers);

  // --- Section 1: watchdog + flight recorder ---------------------------
  std::printf(
      "\n=== Analyzer overhead: backward with the watchdog + flight\n"
      "recorder on vs off ===\n\n");
  paired_report("analyzer off:", "analyzer on:", [] {
    analysis::Options on;
    on.watchdog = true;
    // Far beyond any real op; never fires here.
    on.watchdog_sec = 120.0;
    analysis::ScopedOptions opts(on);
    return measure_backward();
  });
  HookSites sites;
  const double bwd = measure_backward(&sites);
  const int64_t ops = sites.comm_ops;
  const double ns = ledger_ns_per_op();
  const double share = ns * 1e-9 * static_cast<double>(ops) / bwd;
  std::printf(
      "direct: ledger begin+end %.0f ns/op x %lld comm ops per backward = "
      "%s of a %s analyzer-off backward\n",
      ns, static_cast<long long>(ops), format_percent(share, 2).c_str(),
      format_time_ms(bwd).c_str());
  std::printf("%s: the ledger's per-op work costs %s 2%% of the backward.\n",
              share < 0.02 ? "OK" : "UNEXPECTED",
              share < 0.02 ? "under" : "MORE than");
  const double entry_ns = entry_check_ns_per_op();
  const double entry_share = entry_ns * 1e-9 * static_cast<double>(ops) / bwd;
  std::printf(
      "direct: entry check %.1f ns/collective x %lld comm ops per backward "
      "= %s of the backward\n",
      entry_ns, static_cast<long long>(ops),
      format_percent(entry_share, 3).c_str());
  std::printf(
      "%s: the always-on entry check costs %s 0.1%% of the backward.\n",
      entry_share < 0.001 ? "OK" : "UNEXPECTED",
      entry_share < 0.001 ? "under" : "MORE than");

  // --- Section 2: fault hooks ------------------------------------------
  std::printf(
      "\n=== Fault-plane overhead: backward with the fault hooks\n"
      "disarmed vs armed with an inert plan ===\n\n");
  // A plan that can never fire: a rank and step this bench never
  // reaches. Every hook still walks the full armed slow path.
  const char* inert = "crash@r99:step=999999";
  paired_report("disarmed:", "armed(inert):", [&] {
    fault::ScopedPlan armed_plan(fault::FaultPlan::parse(inert));
    return measure_backward();
  });
  direct_fault_guard("disarmed", fault_hook_ns(), sites, bwd, 0.01);
  {
    fault::ScopedPlan armed_plan(fault::FaultPlan::parse(inert));
    direct_fault_guard("armed (inert plan)", fault_hook_ns(), sites, bwd,
                       0.01);
  }
  return 0;
}
