#include "analysis/static/plan.h"

#include <algorithm>

#include "common/check.h"

namespace mls::verify {

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

std::vector<PlanEvent> Plan::events_of(const std::string& group,
                                       int world_rank) const {
  MLS_CHECK(world_rank >= 0 && world_rank < world_size);
  std::vector<PlanEvent> out;
  for (const PlanEvent& e : ranks[static_cast<size_t>(world_rank)]) {
    if (e.group == group) out.push_back(e);
  }
  return out;
}

}  // namespace mls::verify
