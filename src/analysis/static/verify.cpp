#include "analysis/static/verify.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <tuple>

#include "analysis/report.h"
#include "comm/ring.h"
#include "common/check.h"
#include "tensor/dtype.h"

namespace mls::verify {

namespace {

int64_t elem_bytes(int dtype) {
  return dtype < 0 ? 0 : byte_size(static_cast<Dtype>(dtype));
}

// Group rank `grank`'s collectives of `g`, numbered by position — the
// rule the comm layer applies, so seq reads the same in hand-written and
// recorded plans.
std::vector<analysis::CommRecord> collective_stream(const Plan& plan,
                                                    const Group& g, int grank) {
  std::vector<analysis::CommRecord> out;
  for (const PlanEvent& e :
       plan.events_of(g.name, g.members[static_cast<size_t>(grank)])) {
    if (!analysis::is_collective(e.kind)) continue;
    out.push_back(e);
    out.back().seq = static_cast<int64_t>(out.size()) - 1;
  }
  return out;
}

std::vector<analysis::CommRecord> tail(
    const std::vector<analysis::CommRecord>& v, size_t upto, size_t k) {
  const size_t lo = upto > k ? upto - k : 0;
  return {v.begin() + static_cast<std::ptrdiff_t>(lo),
          v.begin() + static_cast<std::ptrdiff_t>(upto)};
}

}  // namespace

std::vector<Violation> check_schedule(const Plan& plan) {
  std::vector<Violation> out;
  for (const Group& g : plan.groups) {
    if (g.size() <= 1) continue;
    const auto base = collective_stream(plan, g, 0);
    for (int r = 1; r < g.size(); ++r) {
      const auto other = collective_stream(plan, g, r);
      const size_t common = std::min(base.size(), other.size());
      bool diverged = false;
      for (size_t i = 0; i < common; ++i) {
        if (analysis::records_match(base[i], other[i])) continue;
        out.push_back({"schedule", g.name,
                       analysis::format_mismatch(g.name, 0, base[i], r,
                                                 other[i], tail(other, i, 4))});
        diverged = true;
        break;
      }
      if (diverged || base.size() == other.size()) continue;
      // One rank issues collectives the other never does: name the
      // first orphan and its call site.
      const bool extra_on_other = other.size() > base.size();
      const auto& orphan = extra_on_other ? other[common] : base[common];
      std::ostringstream os;
      os << "collective count mismatch in group '" << g.name << "': rank 0 "
         << "issues " << base.size() << " collectives, rank " << r
         << " issues " << other.size() << "\n  first unmatched (rank "
         << (extra_on_other ? r : 0)
         << "): " << analysis::format_record(orphan);
      out.push_back({"schedule", g.name, os.str()});
    }
  }
  return out;
}

std::vector<Violation> check_deadlock(const Plan& plan) {
  const int W = plan.world_size;
  std::vector<size_t> pos(static_cast<size_t>(W), 0);
  // Buffered sends: (group, src grank, dst grank, tag) -> FIFO depth.
  std::map<std::tuple<std::string, int, int, int>, int> in_flight;

  auto grank_of = [&](const std::string& group, int rank) {
    const Group* g = plan.find_group(group);
    return g ? g->rank_of(rank) : -1;
  };
  auto head = [&](int rank) -> const PlanEvent* {
    const auto& prog = plan.ranks[static_cast<size_t>(rank)];
    return pos[static_cast<size_t>(rank)] < prog.size()
               ? &prog[pos[static_cast<size_t>(rank)]]
               : nullptr;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    // Sends never block (the mailbox buffers); satisfiable recvs drain.
    for (int r = 0; r < W; ++r) {
      for (const PlanEvent* e = head(r); e != nullptr; e = head(r)) {
        if (e->kind == analysis::OpKind::kSend) {
          ++in_flight[{e->group, grank_of(e->group, r), e->peer, e->tag}];
        } else if (e->kind == analysis::OpKind::kRecv) {
          auto it = in_flight.find(
              {e->group, e->peer, grank_of(e->group, r), e->tag});
          if (it == in_flight.end() || it->second == 0) break;
          --it->second;
        } else {
          break;
        }
        ++pos[static_cast<size_t>(r)];
        progress = true;
      }
    }
    // Collectives rendezvous: a group advances when every member's head
    // is a collective of that group.
    for (const Group& g : plan.groups) {
      bool ready = true;
      for (int m : g.members) {
        const PlanEvent* e = head(m);
        if (!e || e->group != g.name || !analysis::is_collective(e->kind)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      for (int m : g.members) ++pos[static_cast<size_t>(m)];
      progress = true;
    }
  }

  std::vector<int> stuck;
  for (int r = 0; r < W; ++r) {
    if (head(r) != nullptr) stuck.push_back(r);
  }
  if (stuck.empty()) return {};

  // Wait-for edge of a stuck rank: a recv waits on its peer; a
  // collective waits on the first member not yet at this group.
  auto waits_on = [&](int r) -> int {
    const PlanEvent* e = head(r);
    if (e->kind == analysis::OpKind::kRecv) {
      const Group* g = plan.find_group(e->group);
      return g ? g->members[static_cast<size_t>(e->peer)] : -1;
    }
    const Group* g = plan.find_group(e->group);
    if (g == nullptr) return -1;
    for (int m : g->members) {
      const PlanEvent* h = head(m);
      if (!h || h->group != g->name || !analysis::is_collective(h->kind)) {
        return m;
      }
    }
    return -1;
  };

  std::ostringstream os;
  os << "deadlock: " << stuck.size() << " rank(s) cannot make progress\n";
  for (int r : stuck) {
    const PlanEvent* e = head(r);
    os << "  rank " << r << " stuck in " << analysis::format_record(*e)
       << " [group " << e->group << "]";
    const int w = waits_on(r);
    if (w >= 0) {
      os << " — waits on rank " << w;
      if (const PlanEvent* h = head(w)) {
        os << ", itself stuck in " << analysis::format_record(*h);
      } else {
        os << ", which already finished";
      }
    }
    os << "\n";
  }
  // Walk the wait-for chain from the first stuck rank; if it closes, it
  // names the cycle explicitly.
  std::vector<int> chain;
  std::vector<char> seen(static_cast<size_t>(W), 0);
  for (int r = stuck.front(); r >= 0 && head(r) != nullptr;) {
    if (seen[static_cast<size_t>(r)]) {
      os << "  wait-for cycle:";
      const auto start = std::find(chain.begin(), chain.end(), r);
      for (auto it = start; it != chain.end(); ++it) os << " " << *it << " ->";
      os << " " << r;
      break;
    }
    seen[static_cast<size_t>(r)] = 1;
    chain.push_back(r);
    r = waits_on(r);
  }
  return {Violation{"deadlock", "", os.str()}};
}

std::vector<Violation> verify_plan(const Plan& plan) {
  std::vector<Violation> out = check_schedule(plan);
  for (auto& v : check_deadlock(plan)) out.push_back(std::move(v));
  return out;
}

comm::TrafficStats predict_traffic(const Plan& plan, const std::string& group,
                                   int grank) {
  const Group* g = plan.find_group(group);
  MLS_CHECK(g != nullptr) << "unknown group '" << group << "'";
  MLS_CHECK(grank >= 0 && grank < g->size());
  const int T = g->size();

  // FIFO-match sends to recvs per (src, dst, tag) so recv'd bytes equal
  // the sender's payload, as in the mailbox.
  std::map<std::tuple<int, int, int>, std::deque<int64_t>> wires;
  for (int m = 0; m < T; ++m) {
    for (const PlanEvent& e :
         plan.events_of(group, g->members[static_cast<size_t>(m)])) {
      if (e.kind == analysis::OpKind::kSend) {
        wires[{m, e.peer, e.tag}].push_back(e.count * elem_bytes(e.dtype));
      }
    }
  }

  comm::TrafficStats st;
  for (const PlanEvent& e :
       plan.events_of(group, g->members[static_cast<size_t>(grank)])) {
    const int64_t eb = elem_bytes(e.dtype);
    const auto ring = [&](comm::RingPhase phase, int64_t n) {
      return comm::ring_phase_elems(phase, n, grank, T) * eb;
    };
    switch (e.kind) {
      case analysis::OpKind::kAllReduce:
        ++st.all_reduce_count;
        st.bytes_received += ring(comm::RingPhase::kReduceScatter, e.count) +
                             ring(comm::RingPhase::kAllGather, e.count);
        break;
      case analysis::OpKind::kAllGather:
        ++st.all_gather_count;
        // Comm::all_gather stages the result as [T, shard].
        st.bytes_received += ring(comm::RingPhase::kAllGather, T * e.count);
        break;
      case analysis::OpKind::kReduceScatter:
        ++st.reduce_scatter_count;
        st.bytes_received += ring(comm::RingPhase::kReduceScatter, e.count);
        break;
      case analysis::OpKind::kBroadcast:
        ++st.broadcast_count;
        if (T > 1 && grank != e.dim) st.bytes_received += e.count * eb;
        break;
      case analysis::OpKind::kBarrier:
      case analysis::OpKind::kSplit:
        break;
      case analysis::OpKind::kSend:
        ++st.p2p_send_count;
        st.p2p_bytes_sent += e.count * eb;
        break;
      case analysis::OpKind::kRecv: {
        ++st.p2p_recv_count;
        auto& fifo = wires[{e.peer, grank, e.tag}];
        MLS_CHECK(!fifo.empty())
            << "recv in group '" << group << "' rank " << grank
            << " has no matching send (tag " << e.tag << " from " << e.peer
            << ") — run check_deadlock first";
        st.p2p_bytes_received += fifo.front();
        fifo.pop_front();
        break;
      }
    }
  }
  return st;
}

}  // namespace mls::verify
