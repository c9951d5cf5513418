// Deterministic fault plans (DESIGN.md §10).
//
// A FaultPlan is a schedule of failures to inject into a training run:
// rank crashes at a given step or call site, transient collective
// failures (retried with bounded backoff before they poison anything),
// slow-rank stalls (to exercise the comm watchdog), and checkpoint-
// shard corruption (to exercise generation fallback at restore).
//
// Plans come from tests (constructed programmatically), from the
// MLS_FAULT_PLAN environment variable, or from chaos() — a seeded
// random generator the CI chaos job uses (the seed is echoed so any
// failure reproduces exactly).
//
// Spec grammar (MLS_FAULT_PLAN): semicolon-separated events,
//   <kind>@r<rank>[:key=value]...
// where kind ∈ {crash, transient, stall, corrupt, oom} and rank is a
// world rank or `*` for any. Keys: step=<n> (trainer step gate, default
// any), site=<substr> (matched against the op name and the SiteGuard
// tag), fails=<n> (transient/oom failure count), sec=<x> (stall
// duration), gen=<n> (checkpoint generation to corrupt). Examples:
//   crash@r1:step=2
//   transient@r0:site=trainer.grad_norm:fails=2
//   stall@r3:step=1:sec=1.5;corrupt@r2:gen=4
//   oom@r*:site=pressure.soft:fails=8
//
// oom events fire at the allocator hooks (fault::on_oom): site "alloc"
// fails a pool acquisition with a structured MemoryPressureError, site
// "kv.block" exhausts the paged KV pool for one reservation, and sites
// "pressure.soft"/"pressure.hard" force the PressureMonitor's sampled
// level — each fires `fails` times (default 1), so `fails=N` simulates
// N steps of sustained pressure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mls::fault {

enum class FaultKind : uint8_t { kCrash, kTransient, kStall, kCorrupt, kOom };

const char* fault_kind_name(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  int rank = -1;         // world rank targeted; -1 = any rank
  int64_t step = -1;     // trainer step gate; -1 = any step
  std::string site{};    // substring match vs op name / SiteGuard tag; "" = any
  int fails = 1;         // transient/oom: injected failures before success
  double stall_sec = 0;  // stall: injected delay in seconds
  int64_t gen = -1;      // corrupt: checkpoint generation; -1 = any

  std::string str() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::string str() const;

  // Parses the MLS_FAULT_PLAN grammar above; throws mls::Error with the
  // offending token on a malformed spec.
  static FaultPlan parse(const std::string& spec);

  // Seeded random plan for the CI chaos job: one guaranteed crash at a
  // random (rank, step), plus optional extra crash / transient /
  // corruption draws. Total hard faults stay well under the elastic
  // runner's default restart budget, so a chaos run always finishes.
  static FaultPlan chaos(uint64_t seed, int world_size, int64_t steps);
};

}  // namespace mls::fault
