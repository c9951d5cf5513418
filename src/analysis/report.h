// Human-readable rendering of analyzer state: one-line CommRecords,
// cross-rank mismatch reports, and the watchdog's flight-recorder dump.
// Kept separate from the ledger so the formats have one home and tests
// can assert on stable substrings ("collective mismatch", "stuck in").
#pragma once

#include <string>
#include <vector>

#include "analysis/ledger.h"

namespace mls::analysis {

// "all_reduce(count=768, op=sum, dtype=f32, blocking) at f(copy_to_tp).bwd"
std::string format_record(const CommRecord& r);

// The structured diagnostic raised at the first divergent collective.
// `last_matching` is rank_b's tail of matching events, when known (the
// static checker passes it; the runtime entry check does not).
std::string format_mismatch(const std::string& group, int rank_a,
                            const CommRecord& a, int rank_b,
                            const CommRecord& b,
                            const std::vector<CommRecord>& last_matching);

// Per-rank last-K event dump, watchdog style: who is (still) inside
// what, at which seq, issued from which call site.
std::string format_flight_dump(const std::string& group,
                               const std::vector<std::vector<CommRecord>>& per_rank,
                               double now);

}  // namespace mls::analysis
