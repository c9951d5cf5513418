// Plan: per-rank collective schedules as data (DESIGN.md §12).
//
// The runtime entry check (comm/entry_check.h) can only match a schedule
// *while it runs*; a Plan holds the same per-rank CommRecord streams
// offline, so cross-rank match, deadlock-freedom, and the paper's
// Table 2 byte budget become checks over data. Real plans are recorded
// from the runtime itself (analysis/static/record.h), each record kept
// exactly as the ledger wrote it; small seeded mis-plans (tests,
// --demo-failure) push their few records directly.
#pragma once

#include <string>
#include <vector>

#include "analysis/ledger.h"

namespace mls::verify {

// One comm event at one world rank: the ledger's record plus the
// analyzer group it ran in. `peer` is the GROUP rank of the p2p peer,
// as at runtime.
struct PlanEvent : analysis::CommRecord {
  std::string group;
};

// An analyzer group: name + member world ranks. Members are ascending
// world ranks, and their position IS the group rank — the same
// convention Comm::split derives from split colors.
struct Group {
  std::string name;
  std::vector<int> members;
  int size() const { return static_cast<int>(members.size()); }
  int rank_of(int world_rank) const;  // group rank, -1 if not a member
};

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

  // This member's events of `group`, in issue order.
  std::vector<PlanEvent> events_of(const std::string& group,
                                   int world_rank) const;
};

}  // namespace mls::verify
