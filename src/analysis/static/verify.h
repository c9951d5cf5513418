// The static checks over a Plan (DESIGN.md §12):
//
//  * check_schedule — cross-rank collective matching, offline: every
//    group member's collective stream, numbered by position as the
//    comm layer numbers seq, must match group rank 0's seq by seq under
//    the runtime entry check's own records_match predicate; the
//    first divergence is reported with analysis::format_mismatch — the
//    same two-call-site diagnostic the runtime throws, minus the run.
//  * check_deadlock — a happens-before execution simulation: sends are
//    buffered (mailbox semantics), recvs block on a matching prior
//    send, collectives block until every group member's next event is a
//    collective of that group. If the simulation wedges, the wait-for
//    cycle is reported with each stuck rank's head event and site.
//  * predict_traffic — per-rank comm::TrafficStats computed from the
//    plan by the ring chunk schedule the runtime collectives run
//    (comm/ring.h, non-divisible splits included), so it equals the
//    runtime's counters byte for byte, not approximately.
#pragma once

#include <string>
#include <vector>

#include "analysis/static/plan.h"
#include "comm/comm.h"

namespace mls::verify {

struct Violation {
  std::string check;    // "schedule" | "deadlock" | "budget"
  std::string group;    // analyzer group, "" when not group-scoped
  std::string message;  // full structured report (multi-line)
};

// Cross-rank schedule matching for every group of size > 1. At most one
// violation per (rank, group) pair — the first divergence, as at
// runtime.
std::vector<Violation> check_schedule(const Plan& plan);

// Deadlock-freedom of the full multi-group program. Empty when the
// whole plan can run to completion.
std::vector<Violation> check_deadlock(const Plan& plan);

// Both of the above.
std::vector<Violation> verify_plan(const Plan& plan);

// The TrafficStats group member `grank` of `group` accumulates when the
// plan executes. Recv byte counts come from FIFO-matching each recv to
// its sender's stream (tag-matched, per src/dst pair), exactly like the
// mailbox.
comm::TrafficStats predict_traffic(const Plan& plan, const std::string& group,
                                   int grank);

}  // namespace mls::verify
