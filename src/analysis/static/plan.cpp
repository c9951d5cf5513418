#include "analysis/static/plan.h"

#include <algorithm>

#include "common/check.h"

namespace mls::verify {

analysis::CommRecord to_record(const PlanEvent& e) {
  analysis::CommRecord r;
  r.kind = e.kind;
  r.reduce_op = e.reduce_op;
  r.dtype = e.dtype;
  r.count = e.count;
  r.dim = e.dim;
  r.peer = e.peer;
  r.tag = e.tag;
  r.site = e.site;
  return r;
}

int Group::rank_of(int world_rank) const {
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i] == world_rank) return static_cast<int>(i);
  }
  return -1;
}

Plan::Plan(int world) : world_size(world) {
  MLS_CHECK_GE(world, 1);
  ranks.resize(static_cast<size_t>(world));
}

int Plan::add_group(const std::string& name, std::vector<int> members) {
  MLS_CHECK(!members.empty()) << "group '" << name << "' has no members";
  std::sort(members.begin(), members.end());
  for (int m : members) {
    MLS_CHECK(m >= 0 && m < world_size)
        << "group '" << name << "' member " << m << " outside world";
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].name == name) {
      MLS_CHECK(groups[i].members == members)
          << "group '" << name << "' re-registered with different members";
      return static_cast<int>(i);
    }
  }
  groups.push_back(Group{name, std::move(members)});
  return static_cast<int>(groups.size() - 1);
}

const Group* Plan::find_group(const std::string& name) const {
  for (const Group& g : groups) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

SymComm Plan::comm(const std::string& group, int world_rank) {
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].name != group) continue;
    const int grank = groups[i].rank_of(world_rank);
    MLS_CHECK_GE(grank, 0) << "world rank " << world_rank
                           << " is not a member of group '" << group << "'";
    return SymComm(this, static_cast<int>(i), world_rank, grank,
                   groups[i].size());
  }
  MLS_CHECK(false) << "unknown group '" << group << "'";
  return SymComm();
}

std::vector<PlanEvent> Plan::events_of(const std::string& group,
                                       int world_rank) const {
  MLS_CHECK(world_rank >= 0 && world_rank < world_size);
  std::vector<PlanEvent> out;
  for (const PlanEvent& e : ranks[static_cast<size_t>(world_rank)]) {
    if (e.group == group) out.push_back(e);
  }
  return out;
}

std::vector<analysis::CommRecord> Plan::expected_records(
    const std::string& group, int grank) const {
  const Group* g = find_group(group);
  MLS_CHECK(g != nullptr) << "unknown group '" << group << "'";
  MLS_CHECK(grank >= 0 && grank < g->size());
  std::vector<analysis::CommRecord> out;
  int64_t next_id = 0;
  int64_t next_seq = 0;
  for (const PlanEvent& e : events_of(group, g->members[static_cast<size_t>(
                                                 grank)])) {
    analysis::CommRecord r = to_record(e);
    r.id = next_id++;
    if (analysis::is_collective(r.kind)) r.seq = next_seq++;
    out.push_back(std::move(r));
  }
  return out;
}

SymComm::SymComm(Plan* plan, int group_idx, int world_rank, int grank,
                 int size)
    : plan_(plan),
      group_idx_(group_idx),
      world_rank_(world_rank),
      grank_(grank),
      size_(size) {}

const std::string& SymComm::group() const {
  MLS_CHECK(valid());
  return plan_->groups[static_cast<size_t>(group_idx_)].name;
}

void SymComm::emit(PlanEvent e) {
  MLS_CHECK(valid());
  e.group = plan_->groups[static_cast<size_t>(group_idx_)].name;
  const char* s = analysis::SiteGuard::current();
  e.site = s ? s : "(untagged)";
  plan_->ranks[static_cast<size_t>(world_rank_)].push_back(std::move(e));
}

void SymComm::all_reduce(int64_t count, Dtype dtype, comm::ReduceOp op) {
  emit(PlanEvent{.kind = analysis::OpKind::kAllReduce,
                 .reduce_op = static_cast<int>(op),
                 .dtype = static_cast<int>(dtype),
                 .count = count});
}

void SymComm::all_gather(int64_t shard_count, int dim, Dtype dtype) {
  emit(PlanEvent{.kind = analysis::OpKind::kAllGather,
                 .dtype = static_cast<int>(dtype),
                 .count = shard_count,
                 .dim = dim});
}

void SymComm::reduce_scatter(int64_t full_count, int dim, Dtype dtype) {
  emit(PlanEvent{.kind = analysis::OpKind::kReduceScatter,
                 .dtype = static_cast<int>(dtype),
                 .count = full_count,
                 .dim = dim});
}

void SymComm::broadcast(int64_t count, int root, Dtype dtype) {
  emit(PlanEvent{.kind = analysis::OpKind::kBroadcast,
                 .dtype = static_cast<int>(dtype),
                 .count = count,
                 .dim = root});
}

void SymComm::barrier() { emit(PlanEvent{.kind = analysis::OpKind::kBarrier}); }

void SymComm::split(int color) {
  emit(PlanEvent{.kind = analysis::OpKind::kSplit, .dim = color});
}

void SymComm::send(int dst, int tag, int64_t count, Dtype dtype) {
  MLS_CHECK(dst >= 0 && dst < size_);
  emit(PlanEvent{.kind = analysis::OpKind::kSend,
                 .dtype = static_cast<int>(dtype),
                 .count = count,
                 .peer = dst,
                 .tag = tag});
}

void SymComm::recv(int src, int tag) {
  MLS_CHECK(src >= 0 && src < size_);
  emit(PlanEvent{.kind = analysis::OpKind::kRecv, .peer = src, .tag = tag});
}

}  // namespace mls::verify
