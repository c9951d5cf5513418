// Cross-rank collective matching, always on, carried by the entry
// rendezvous that every collective already passes before its ring
// moves a byte (DESIGN.md §6).
//
// Before the entry barrier each rank publishes what it is about to run
// (kind, reduce op, dtype, element count, dim and its SiteGuard label)
// into its own cache-line slot. After the barrier every rank compares
// all T slots with analysis::records_match. All ranks read the same
// slots, so at the first divergent collective (wrong op, wrong count,
// skewed order, the paper's g-vs-f̄ confusion when sequence parallelism
// is on for only some ranks) every rank raises the same report naming
// both ranks and both call sites, before any data moves.
//
// Slots are double-buffered by seq parity. Comm::barrier() has no
// second rendezvous, so a rank may leave it while a peer still
// compares; its next collective writes the other slot, and it cannot
// reach the one after that before the peer joins the next entry
// barrier.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ledger.h"

namespace mls::comm {

class EntryCheck {
 public:
  explicit EntryCheck(int size) : ranks_(static_cast<size_t>(size)) {}

  // The rank's next collective seq. Size-1 groups draw one too, so the
  // numbering (which the ledger records) is the same at every t.
  int64_t next_seq(int rank) {
    return ranks_[static_cast<size_t>(rank)].next_seq++;
  }

  // Before the entry barrier: `rank` publishes collective `rec`, whose
  // seq came from next_seq().
  void publish(int rank, const analysis::CommRecord& rec);

  // After the entry barrier: "" when every rank published a matching
  // collective at `seq`, else the report on the first rank that
  // differs from rank 0.
  std::string mismatch(const std::string& group, int64_t seq) const;

 private:
  struct alignas(64) Slot {
    analysis::OpKind kind = analysis::OpKind::kBarrier;
    int reduce_op = -1;
    int dtype = -1;
    int64_t count = 0;
    int dim = -1;
    const char* site = nullptr;  // static storage (SiteGuard's contract)
  };
  struct Rank {
    alignas(64) int64_t next_seq = 0;
    std::array<Slot, 2> slots;  // indexed by seq parity
  };
  std::vector<Rank> ranks_;
};

}  // namespace mls::comm
