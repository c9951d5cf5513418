// Comm-correctness ledger: the recording half of the collective
// analyzer (DESIGN.md §6).
//
// Every comm operation of `comm::Comm` can record a CommRecord into its
// group's Ledger: a per-rank history that doubles as a flight recorder
// (last K events, PyTorch-Flight-Recorder style). The Watchdog reads it
// to explain genuine hangs (src/analysis/watchdog.h), and the static
// plan recorder reads it as the schedule (analysis/static/record.h).
//
// Cross-rank matching does not need the ledger: every collective checks
// it on its own entry rendezvous, always (comm/entry_check.h), with
// records_match below as the one matching rule.
//
// The ledger is opt-in: a World without one costs one null-pointer
// branch per comm op.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mls::analysis {

// Collective kinds come first so is_collective() is a range check; the
// p2p kinds are recorded for the flight recorder but never cross-rank
// matched (their pairing is asymmetric by nature).
enum class OpKind : uint8_t {
  kAllReduce,
  kAllGather,
  kReduceScatter,
  kBroadcast,
  kBarrier,
  kSplit,
  kSend,
  kRecv,
};

const char* op_kind_name(OpKind k);

inline bool is_collective(OpKind k) { return k <= OpKind::kSplit; }

// One comm event at one rank. `seq` numbers the rank's collectives in
// the group (the comm layer draws it; it is the cross-rank matching
// key); `id` numbers every event on the rank.
// `order` is a process-wide ticket drawn at begin(): it increases along
// each thread's program order, so one rank's records from different
// groups merge back into the order that rank issued them.
struct CommRecord {
  int64_t seq = -1;
  int64_t id = -1;
  int64_t order = -1;
  OpKind kind = OpKind::kBarrier;
  int reduce_op = -1;   // comm::ReduceOp for all-reduce, else -1
  int dtype = -1;       // tensor/dtype.h Dtype, else -1
  int64_t count = 0;    // element count of the operand
  int dim = -1;         // gather/scatter dim; broadcast root; split color
  int peer = -1;        // p2p peer rank
  int tag = -1;         // p2p tag
  std::string site{};   // call-site tag (SiteGuard), "(untagged)" if none
  double start = 0;     // seconds since the ledger epoch
  double end = 0;       // 0 while the op is in flight
};

// True when two ranks' records describe the same collective: the one
// matching rule of the comm layer's entry check and of the static
// checker (analysis/static/verify.cpp). It reads only kind, reduce_op,
// dtype, count and dim, so it takes a CommRecord and the entry check's
// plain-data slot alike. kSplit colors legitimately differ per rank, so
// only the kind must agree there.
template <class A, class B>
bool records_match(const A& a, const B& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case OpKind::kAllReduce:
      return a.count == b.count && a.reduce_op == b.reduce_op &&
             a.dtype == b.dtype;
    case OpKind::kAllGather:
    case OpKind::kReduceScatter:
    case OpKind::kBroadcast:
      return a.count == b.count && a.dim == b.dim && a.dtype == b.dtype;
    default:  // barrier, split (colors differ), p2p (never matched)
      return true;
  }
}

// Analyzer configuration. `effective()` consults a process-global test
// override (ScopedOptions) first, then the MLS_* environment:
//   MLS_COMM_WATCHDOG=1      — hang monitor + flight-recorder dump
//   MLS_COMM_WATCHDOG_SEC=x  — stuck-op deadline (default 30)
//   MLS_COMM_FLIGHT_DEPTH=k  — events kept per rank (default 16)
// `validate` keeps a ledger without a watchdog (verify::record needs
// the history); it is set through ScopedOptions only. Cross-rank
// matching is always on and has no switch.
struct Options {
  bool validate = false;
  bool watchdog = false;
  double watchdog_sec = 30.0;
  int flight_depth = 16;
  bool enabled() const { return validate || watchdog; }
  static Options from_env();
  static Options effective();
};

// RAII process-global Options override for tests (shadows the
// environment until destruction; nests).
class ScopedOptions {
 public:
  explicit ScopedOptions(Options o);
  ~ScopedOptions();
  ScopedOptions(const ScopedOptions&) = delete;
  ScopedOptions& operator=(const ScopedOptions&) = delete;

 private:
  bool had_prev_;
  Options prev_;
};

// RAII thread-local call-site tag recorded into CommRecords. The string
// must have static storage duration (use literals). Nested guards
// shadow; the innermost tag wins. Comm operations run on the rank
// thread that set the guard, so they record the site that issued them.
class SiteGuard {
 public:
  explicit SiteGuard(const char* site);
  ~SiteGuard();
  SiteGuard(const SiteGuard&) = delete;
  SiteGuard& operator=(const SiteGuard&) = delete;
  static const char* current();  // nullptr when no guard is live
  static const char* label();    // current(), or "(untagged)"

 private:
  const char* prev_;
};

class Ledger {
 public:
  Ledger(std::string group, int size, Options opts);

  const Options& options() const { return opts_; }
  const std::string& group() const { return group_; }
  int size() const { return size_; }
  double now() const;

  // Records the start of an op at `rank` (its seq already drawn by the
  // comm layer). Returns the event id to pass to end().
  int64_t begin(int rank, CommRecord rec);
  void end(int rank, int64_t id);

  // Flight-recorder access: per-rank copies of the retained history
  // (oldest first; in-flight events have end == 0).
  std::vector<std::vector<CommRecord>> snapshot() const;

 private:
  struct RankLog {
    mutable std::mutex mu;
    std::deque<CommRecord> history;
    int64_t next_id = 0;
  };

  const std::string group_;
  const int size_;
  const Options opts_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<RankLog>> ranks_;
};

}  // namespace mls::analysis
