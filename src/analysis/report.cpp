#include "analysis/report.h"

#include <sstream>

#include "comm/comm.h"
#include "tensor/dtype.h"

namespace mls::analysis {

namespace {

void append_payload(std::ostringstream& os, const CommRecord& r) {
  switch (r.kind) {
    case OpKind::kAllReduce:
      os << "(count=" << r.count
         << ", op=" << (r.reduce_op == static_cast<int>(comm::ReduceOp::Max)
                            ? "max"
                            : "sum")
         << ", dtype=" << dtype_name(static_cast<Dtype>(r.dtype)) << ")";
      break;
    case OpKind::kAllGather:
    case OpKind::kReduceScatter:
      os << "(count=" << r.count << ", dim=" << r.dim
         << ", dtype=" << dtype_name(static_cast<Dtype>(r.dtype)) << ")";
      break;
    case OpKind::kBroadcast:
      os << "(count=" << r.count << ", root=" << r.dim
         << ", dtype=" << dtype_name(static_cast<Dtype>(r.dtype)) << ")";
      break;
    case OpKind::kSplit:
      os << "(color=" << r.dim << ")";
      break;
    case OpKind::kBarrier:
      os << "()";
      break;
    case OpKind::kSend:
    case OpKind::kRecv:
      os << "(peer=" << r.peer << ", tag=" << r.tag;
      if (r.kind == OpKind::kSend) os << ", count=" << r.count;
      os << ")";
      break;
  }
}

}  // namespace

std::string format_record(const CommRecord& r) {
  std::ostringstream os;
  os << op_kind_name(r.kind);
  append_payload(os, r);
  if (r.seq >= 0) os << " seq=" << r.seq;
  os << " at " << r.site;
  return os.str();
}

namespace {

void append_tail(std::ostringstream& os, const std::string& label,
                 const std::vector<CommRecord>& tail) {
  if (tail.empty()) return;
  os << label << "\n";
  for (const auto& r : tail) os << "    " << format_record(r) << "\n";
}

}  // namespace

std::string format_mismatch(const std::string& group, int rank_a,
                            const CommRecord& a, int rank_b,
                            const CommRecord& b,
                            const std::vector<CommRecord>& last_matching) {
  std::ostringstream os;
  os << "collective mismatch in group '" << group << "' at seq " << a.seq
     << ":\n"
     << "  rank " << rank_a << ": " << format_record(a) << "\n"
     << "  rank " << rank_b << ": " << format_record(b) << "\n";
  append_tail(os, "  last matching events on rank " + std::to_string(rank_b) + ":",
              last_matching);
  return os.str();
}

std::string format_flight_dump(const std::string& group,
                               const std::vector<std::vector<CommRecord>>& per_rank,
                               double now) {
  std::ostringstream os;
  os << "flight recorder for group '" << group << "' (last "
     << "events per rank; * = still in flight):\n";
  for (size_t r = 0; r < per_rank.size(); ++r) {
    os << "  rank " << r << ":\n";
    if (per_rank[r].empty()) os << "    (no comm events)\n";
    for (const auto& rec : per_rank[r]) {
      os << "    " << (rec.end == 0 ? "* " : "  ") << format_record(rec);
      if (rec.end == 0) {
        os << "  [in flight " << static_cast<int64_t>((now - rec.start) * 1e3)
           << " ms]";
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace mls::analysis
