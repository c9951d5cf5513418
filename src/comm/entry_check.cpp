#include "comm/entry_check.h"

#include "analysis/report.h"

namespace mls::comm {

void EntryCheck::publish(int rank, const analysis::CommRecord& rec) {
  ranks_[static_cast<size_t>(rank)].slots[static_cast<size_t>(rec.seq & 1)] = {
      .kind = rec.kind,
      .reduce_op = rec.reduce_op,
      .dtype = rec.dtype,
      .count = rec.count,
      .dim = rec.dim,
      .site = analysis::SiteGuard::label()};
}

std::string EntryCheck::mismatch(const std::string& group, int64_t seq) const {
  const auto parity = static_cast<size_t>(seq & 1);
  const Slot& first = ranks_[0].slots[parity];
  for (size_t r = 1; r < ranks_.size(); ++r) {
    const Slot& other = ranks_[r].slots[parity];
    if (analysis::records_match(first, other)) continue;
    auto record = [seq](const Slot& s) {
      return analysis::CommRecord{.seq = seq,
                                  .kind = s.kind,
                                  .reduce_op = s.reduce_op,
                                  .dtype = s.dtype,
                                  .count = s.count,
                                  .dim = s.dim,
                                  .site = s.site};
    };
    return analysis::format_mismatch(group, 0, record(first),
                                     static_cast<int>(r), record(other), {});
  }
  return {};
}

}  // namespace mls::comm
