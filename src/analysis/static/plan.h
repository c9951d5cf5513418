// Plan: per-rank collective schedules as data (DESIGN.md §12).
//
// The runtime analyzer (analysis/ledger.h) can only validate a schedule
// *while it runs*; a Plan holds the same per-rank CommRecord streams
// offline, so cross-rank match, deadlock-freedom, and the paper's
// Table 2 byte budget become checks over data. Real plans are recorded
// from the runtime itself (analysis/static/record.h); SymComm builds
// small plans by hand (seeded mis-plans in tests, --demo-failure). A
// PlanEvent carries exactly the fields of an analysis::CommRecord,
// to_record() bridges into records_match / format_mismatch verbatim,
// and Plan::expected_records reproduces the ledger's seq/id numbering.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ledger.h"
#include "comm/comm.h"
#include "tensor/dtype.h"

namespace mls::verify {

// One comm event at one world rank, inside one analyzer group.
// Field meanings mirror analysis::CommRecord exactly; `peer` is the
// GROUP rank of the p2p peer, as at runtime.
struct PlanEvent {
  analysis::OpKind kind = analysis::OpKind::kBarrier;
  int reduce_op = -1;   // comm::ReduceOp for all-reduce, else -1
  int dtype = -1;       // tensor/dtype.h Dtype, else -1 (recv)
  int64_t count = 0;    // element count of the operand (0 for recv)
  int dim = -1;         // gather/scatter dim; broadcast root; split color
  int peer = -1;        // p2p peer (group rank)
  int tag = -1;         // p2p tag
  std::string group;    // analyzer group name this event runs in
  std::string site;     // call-site tag captured at emission
};

// The runtime-record shape of a PlanEvent. seq/id are left unassigned
// (-1); Plan::expected_records numbers them per group exactly as
// Ledger::begin does.
analysis::CommRecord to_record(const PlanEvent& e);

// An analyzer group: name + member world ranks. Members are ascending
// world ranks, and their position IS the group rank — the same
// convention Comm::split derives from split colors.
struct Group {
  std::string name;
  std::vector<int> members;
  int size() const { return static_cast<int>(members.size()); }
  int rank_of(int world_rank) const;  // group rank, -1 if not a member
};

class SymComm;

// A complete static plan: per-world-rank event programs (issue order —
// one thread is one rank, exactly like the runtime) plus the group
// table.
struct Plan {
  int world_size = 1;
  std::vector<std::vector<PlanEvent>> ranks;  // [world_rank] -> events
  std::vector<Group> groups;

  explicit Plan(int world = 1);

  // Registers a group (idempotent by name; members must then agree) and
  // returns its index into `groups`.
  int add_group(const std::string& name, std::vector<int> members);
  const Group* find_group(const std::string& name) const;

  // Emission handle for `world_rank` inside `group` (must be a member).
  SymComm comm(const std::string& group, int world_rank);

  // This member's events of `group`, in issue order.
  std::vector<PlanEvent> events_of(const std::string& group,
                                   int world_rank) const;

  // The ledger-shaped record stream the runtime retains for group rank
  // `grank`: id numbers every event, seq numbers collectives only —
  // field-comparable against Comm::ledger_history()[grank].
  std::vector<analysis::CommRecord> expected_records(const std::string& group,
                                                     int grank) const;
};

// Symbolic mirror of comm::Comm: the same call surface (element counts
// and dims instead of tensors), recording the same fields under the
// same thread-local analysis::SiteGuard. Dtype defaults mirror the
// tensor library's F16 activation default.
class SymComm {
 public:
  SymComm() = default;
  bool valid() const { return plan_ != nullptr; }
  int rank() const { return grank_; }
  int size() const { return size_; }
  const std::string& group() const;

  void all_reduce(int64_t count, Dtype dtype = Dtype::F16,
                  comm::ReduceOp op = comm::ReduceOp::Sum);
  void all_gather(int64_t shard_count, int dim = 0,
                  Dtype dtype = Dtype::F16);
  void reduce_scatter(int64_t full_count, int dim = 0,
                      Dtype dtype = Dtype::F16);
  void broadcast(int64_t count, int root, Dtype dtype = Dtype::F16);
  void barrier();
  void split(int color);  // recorded on THIS group, like Comm::split
  void send(int dst, int tag, int64_t count, Dtype dtype = Dtype::F16);
  void recv(int src, int tag);

 private:
  friend struct Plan;
  SymComm(Plan* plan, int group_idx, int world_rank, int grank, int size);
  void emit(PlanEvent e);

  Plan* plan_ = nullptr;
  int group_idx_ = -1;
  int world_rank_ = 0;
  int grank_ = 0;
  int size_ = 1;
};

}  // namespace mls::verify
