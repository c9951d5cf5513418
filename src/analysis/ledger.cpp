#include "analysis/ledger.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "core/env.h"

namespace mls::analysis {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kAllReduce: return "all_reduce";
    case OpKind::kAllGather: return "all_gather";
    case OpKind::kReduceScatter: return "reduce_scatter";
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kBarrier: return "barrier";
    case OpKind::kSplit: return "split";
    case OpKind::kSend: return "send";
    case OpKind::kRecv: return "recv";
  }
  return "?";
}

// ------------------------------------------------------------- Options

namespace {
std::mutex g_opts_mu;
std::optional<Options> g_opts_override;
}  // namespace

Options Options::from_env() {
  using core::Env;
  Options o;
  o.watchdog = Env::flag("MLS_COMM_WATCHDOG", false);
  o.watchdog_sec = Env::real("MLS_COMM_WATCHDOG_SEC", o.watchdog_sec);
  o.flight_depth =
      static_cast<int>(Env::integer("MLS_COMM_FLIGHT_DEPTH", o.flight_depth));
  return o;
}

Options Options::effective() {
  {
    std::lock_guard<std::mutex> lock(g_opts_mu);
    if (g_opts_override) return *g_opts_override;
  }
  return from_env();
}

ScopedOptions::ScopedOptions(Options o) {
  std::lock_guard<std::mutex> lock(g_opts_mu);
  had_prev_ = g_opts_override.has_value();
  if (had_prev_) prev_ = *g_opts_override;
  g_opts_override = o;
}

ScopedOptions::~ScopedOptions() {
  std::lock_guard<std::mutex> lock(g_opts_mu);
  if (had_prev_) {
    g_opts_override = prev_;
  } else {
    g_opts_override.reset();
  }
}

// ----------------------------------------------------------- SiteGuard

namespace {
thread_local const char* t_site = nullptr;
}  // namespace

SiteGuard::SiteGuard(const char* site) : prev_(t_site) { t_site = site; }
SiteGuard::~SiteGuard() { t_site = prev_; }
const char* SiteGuard::current() { return t_site; }
const char* SiteGuard::label() { return t_site ? t_site : "(untagged)"; }

namespace {
std::atomic<int64_t> g_next_order{0};  // CommRecord::order tickets
}  // namespace

// --------------------------------------------------------------- Ledger

Ledger::Ledger(std::string group, int size, Options opts)
    : group_(std::move(group)),
      size_(size),
      opts_(opts),
      epoch_(std::chrono::steady_clock::now()) {
  MLS_CHECK_GE(size_, 1);
  ranks_.reserve(static_cast<size_t>(size_));
  for (int r = 0; r < size_; ++r) ranks_.push_back(std::make_unique<RankLog>());
}

double Ledger::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int64_t Ledger::begin(int rank, CommRecord rec) {
  auto& rl = *ranks_[static_cast<size_t>(rank)];
  rec.start = now();
  rec.order = g_next_order.fetch_add(1);
  if (rec.site.empty()) rec.site = SiteGuard::label();
  {
    std::lock_guard<std::mutex> lock(rl.mu);
    rec.id = rl.next_id++;
    rl.history.push_back(rec);
    // Trim completed history beyond the flight depth; in-flight events
    // are pinned so the watchdog can always see them.
    while (rl.history.size() >
               static_cast<size_t>(std::max(1, opts_.flight_depth)) &&
           rl.history.front().end != 0) {
      rl.history.pop_front();
    }
  }
  return rec.id;
}

void Ledger::end(int rank, int64_t id) {
  if (id < 0) return;
  auto& rl = *ranks_[static_cast<size_t>(rank)];
  const double t = now();
  std::lock_guard<std::mutex> lock(rl.mu);
  for (auto it = rl.history.rbegin(); it != rl.history.rend(); ++it) {
    if (it->id == id) {
      it->end = t;
      return;
    }
  }
}

std::vector<std::vector<CommRecord>> Ledger::snapshot() const {
  std::vector<std::vector<CommRecord>> out;
  out.reserve(static_cast<size_t>(size_));
  for (const auto& rl : ranks_) {
    std::lock_guard<std::mutex> lock(rl->mu);
    out.emplace_back(rl->history.begin(), rl->history.end());
  }
  return out;
}

}  // namespace mls::analysis
