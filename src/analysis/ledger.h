// Comm-correctness ledger: the recording + cross-rank-matching half of
// the collective analyzer (DESIGN.md §6).
//
// Every collective entry point of `comm::Comm` records a CommRecord
// into its group's Ledger. With validation enabled, rank 0's records
// are the canonical schedule: rank 0 publishes each record into a
// lock-free slot ring as it enters the collective, and every other rank
// compares its own record at the matching sequence number *before*
// joining the rendezvous. A mismatch (wrong op, wrong element count,
// skewed order — the classic Megatron/NCCL desync modes, including the
// paper's §4 f/f̄ vs g/ḡ pair confusion when sequence parallelism is
// toggled on only some ranks) therefore surfaces as a structured
// mls::Error naming both ranks and both call sites at the *first*
// divergent call, instead of a hang in the ring or silently corrupted
// gradients.
//
// The per-rank history doubles as a flight recorder (last K events,
// PyTorch-Flight-Recorder style); the Watchdog reads it to explain
// genuine hangs (src/analysis/watchdog.h).
//
// Everything here is zero-overhead when the analyzer is off: a World
// without a Ledger costs one null-pointer branch per collective.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mls::analysis {

// Collective kinds come first so is_collective() is a range check; the
// p2p kinds are recorded for the flight recorder but never cross-rank
// validated (their pairing is asymmetric by nature).
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

// One comm event at one rank. `seq` numbers collectives only (it is the
// cross-rank matching key); `id` numbers every event on the rank.
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
  std::string site;     // call-site tag (SiteGuard), "(untagged)" if none
  double start = 0;     // seconds since the ledger epoch
  double end = 0;       // 0 while the op is in flight
};

// True when the two records describe the same collective. kSplit colors
// legitimately differ per rank, so only the kind must agree there.
bool records_match(const CommRecord& a, const CommRecord& b);

// Analyzer configuration. `effective()` consults a process-global test
// override (ScopedOptions) first, then the MLS_* environment:
//   MLS_COMM_ANALYZE=1       — shorthand for validate + watchdog
//   MLS_COMM_VALIDATE=1      — cross-rank collective matching
//   MLS_COMM_WATCHDOG=1      — hang monitor + flight-recorder dump
//   MLS_COMM_WATCHDOG_SEC=x  — stuck-op deadline (default 30)
//   MLS_COMM_FLIGHT_DEPTH=k  — events kept per rank (default 16)
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

  // Called with the full failure report before begin() throws, so the
  // owning communicator can poison its peers (they are headed into a
  // rendezvous that will never complete).
  void set_failure_handler(std::function<void(const std::string&)> fn);

  // Records the start of an op at `rank` and, for collectives with
  // validation on, publishes (rank 0) or compares against rank 0's
  // record at the same seq (other ranks). Throws mls::Error with a
  // structured report on mismatch or publish stall. Returns the event
  // id to pass to end().
  int64_t begin(int rank, CommRecord rec);
  void end(int rank, int64_t id);

  // Flight-recorder access: per-rank copies of the retained history
  // (oldest first; in-flight events have end == 0).
  std::vector<std::vector<CommRecord>> snapshot() const;

 private:
  void publish(const CommRecord& rec);
  void validate(int rank, const CommRecord& rec);
  // Reports through the failure handler, then throws mls::Error.
  [[noreturn]] void fail(const std::string& report);
  std::vector<CommRecord> last_done(int rank, int k) const;

  struct RankLog {
    mutable std::mutex mu;
    std::deque<CommRecord> history;
    int64_t next_seq = 0;
    int64_t next_id = 0;
  };

  const std::string group_;
  const int size_;
  const Options opts_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<RankLog>> ranks_;

  std::mutex failure_mu_;
  std::function<void(const std::string&)> on_failure_;

  // Rank 0's publish ring. Collectives rendezvous inside the group, so
  // rank 0 can lead the slowest validator by at most one record; the
  // ring therefore never wraps onto a slot still being compared. The
  // fast path is one acquire load; the cv only backs the slow path
  // (validator arrived before rank 0).
  static constexpr int kPubRing = 64;
  std::array<CommRecord, kPubRing> pub_;
  std::atomic<int64_t> pub_seq_{-1};
  std::mutex pub_mu_;
  std::condition_variable pub_cv_;
};

}  // namespace mls::analysis
