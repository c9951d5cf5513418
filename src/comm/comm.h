// Comm: a per-rank handle onto a simulated communicator (a group of
// ranks sharing collectives), analogous to an NCCL communicator.
//
// Ranks are threads; collectives are implemented with the *actual ring
// algorithms* used by NCCL for large messages:
//   * all-reduce  = ring reduce-scatter + ring all-gather (exactly the
//     decomposition the paper leans on in §4.2.2 to argue sequence
//     parallelism adds no communication volume),
//   * all-gather / reduce-scatter = the corresponding single phase.
// Every operation blocks the calling rank thread until it completes; a
// collective returns on each rank once all ranks of the group joined.
// Each rank's TrafficStats records the bytes it receives per ring step,
// so tests can assert the paper's volume claims exactly:
//   all-reduce moves 2(t-1)/t · n bytes per rank,
//   reduce-scatter and all-gather move (t-1)/t · n bytes each.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/mailbox.h"
#include "tensor/tensor.h"

namespace mls::analysis {
struct CommRecord;
}

namespace mls::comm {

struct TrafficStats {
  int64_t bytes_received = 0;  // ring-step bytes into this rank
  int64_t all_reduce_count = 0;
  int64_t all_gather_count = 0;
  int64_t reduce_scatter_count = 0;
  int64_t broadcast_count = 0;
  int64_t p2p_send_count = 0;
  int64_t p2p_bytes_sent = 0;
  int64_t p2p_recv_count = 0;
  int64_t p2p_bytes_received = 0;
  void reset() { *this = TrafficStats{}; }
};

class World;

enum class ReduceOp { Sum, Max };

class Comm {
 public:
  Comm() = default;

  // Creates all rank handles of a fresh communicator. Handle i must be
  // used only by (one) thread acting as rank i. `name` labels the group
  // in analyzer diagnostics (split() derives child names from it).
  static std::vector<Comm> create_group(int size, std::string name = "world");

  int rank() const { return rank_; }
  int size() const;
  bool valid() const { return world_ != nullptr; }

  // In-place all-reduce (ring RS + ring AG). Max is used by the
  // vocab-parallel cross-entropy's stable-softmax reduction.
  void all_reduce(Tensor& t, ReduceOp op = ReduceOp::Sum);
  // Gathers equal shards from every rank along `dim`; all ranks return
  // the full tensor. (dim 0 — the sequence dimension in [s,b,h] layout —
  // is the fast path used by the paper's g operator.)
  Tensor all_gather(const Tensor& shard, int dim = 0);
  // Sums `full` across ranks, then returns this rank's chunk of dim 0
  // (which must be divisible by the group size; any other dim throws).
  // The paper's ḡ. A moved-in operand that holds its storage alone is
  // summed in place; otherwise the sum runs in a copy and the caller's
  // tensor is left unchanged.
  Tensor reduce_scatter(Tensor full, int dim = 0);
  void broadcast(Tensor& t, int root);
  void barrier();

  // Collective: partitions ranks by color into sub-communicators and
  // returns this rank's handle in its sub-group. Used to build the
  // tensor-parallel × pipeline-parallel grid.
  Comm split(int color) const;

  // Point-to-point (ranks are this communicator's ranks).
  void send(int dst, int tag, const Tensor& t);
  Tensor recv(int src, int tag);

  TrafficStats& stats() { return *stats_; }
  const TrafficStats& stats() const { return *stats_; }

  // Analyzer group name ("world", "world/c3", ...). Empty for an
  // invalid handle. The static verifier keys its per-group plans on
  // these names (analysis/static/record.h).
  std::string group_name() const;

  // Snapshot of this communicator's analyzer ledger: the retained
  // CommRecord history per group rank, oldest first (see
  // analysis::Ledger::snapshot). Empty unless the ledger is on
  // (Options::validate or Options::watchdog; matching itself needs no
  // ledger); older events are trimmed beyond the flight depth — raise
  // Options::flight_depth (ScopedOptions) before the run to retain
  // everything. Pure read; costs nothing unless called.
  std::vector<std::vector<analysis::CommRecord>> ledger_history() const;

  // Unblocks every rank of this communicator (and sub-communicators)
  // with an error; called when a rank fails. The reason is embedded in
  // the error every unblocked rank throws, so the original diagnostic
  // (a collective-mismatch report, a watchdog dump) survives fan-out.
  void poison(const std::string& reason = "another rank failed");

  // The FIRST poison reason recorded anywhere in this communicator's
  // hierarchy (parent or any split descendant), or "" when healthy.
  // Elastic recovery logs this as the root cause; secondary "another
  // rank failed" fan-out errors never overwrite it.
  std::string poison_reason() const;

 private:
  Comm(std::shared_ptr<World> world, int rank);

  std::shared_ptr<World> world_;
  int rank_ = 0;
  std::shared_ptr<TrafficStats> stats_;
};

}  // namespace mls::comm
