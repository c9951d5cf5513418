#include "analysis/static/record.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ledger.h"
#include "comm/spmd.h"
#include "common/check.h"
#include "common/rng.h"
#include "memory/pool_allocator.h"
#include "model/gpt.h"
#include "pipeline/executor.h"
#include "serve/decode.h"
#include "serve/kv_cache.h"

namespace mls::verify {

namespace {

// One rank's share of a recording: the groups it belongs to (with its
// rank in each) and its own events across all of them, keyed by their
// issue order.
struct RankRecording {
  std::vector<std::pair<std::string, int>> groups;
  std::vector<std::pair<int64_t, PlanEvent>> events;
};

PlanEvent to_event(const analysis::CommRecord& r, const std::string& group) {
  return PlanEvent{.kind = r.kind,
                   .reduce_op = r.reduce_op,
                   .dtype = r.dtype,
                   .count = r.count,
                   .dim = r.dim,
                   .peer = r.peer,
                   .tag = r.tag,
                   .group = group,
                   .site = r.site};
}

// Runs `body` on every rank of a `world`-rank SPMD program with the
// analyzer recording everything. `body` returns the communicators the
// rank used; each contributes this rank's ledger stream to the plan.
Plan record(int world,
            const std::function<std::vector<comm::Comm>(comm::Comm&)>& body) {
  analysis::Options opts;
  opts.validate = true;
  opts.flight_depth = std::numeric_limits<int>::max();
  analysis::ScopedOptions scoped(opts);

  std::vector<RankRecording> recs(static_cast<size_t>(world));
  spmd::run(world, [&](comm::Comm& c) {
    // Unbudgeted: MLS_MEM_BUDGET_BYTES must not make a recording throw.
    memory::ArenaGuard arena(std::make_shared<memory::PoolAllocator>(
        memory::PoolAllocator::Config{},
        "record.r" + std::to_string(c.rank())));
    RankRecording& rec = recs[static_cast<size_t>(c.rank())];
    for (const comm::Comm& g : body(c)) {
      const std::string name = g.group_name();
      const auto history = g.ledger_history();
      MLS_CHECK(!history.empty()) << "group '" << name << "' kept no ledger";
      rec.groups.emplace_back(name, g.rank());
      for (const analysis::CommRecord& r :
           history[static_cast<size_t>(g.rank())]) {
        rec.events.emplace_back(r.order, to_event(r, name));
      }
    }
  });

  // Groups in order of first appearance, taking every rank's world
  // first, then every rank's tp, ...; members ascend by world rank.
  std::vector<std::pair<std::string, std::vector<int>>> members;
  std::map<std::string, size_t> index;
  for (size_t slot = 0; slot < recs[0].groups.size(); ++slot) {
    for (int r = 0; r < world; ++r) {
      const std::string& name =
          recs[static_cast<size_t>(r)].groups[slot].first;
      auto [it, added] = index.emplace(name, members.size());
      if (added) members.emplace_back(name, std::vector<int>{});
      members[it->second].second.push_back(r);
    }
  }
  Plan plan(world);
  for (auto& [name, ranks] : members) plan.add_group(name, std::move(ranks));
  for (int r = 0; r < world; ++r) {
    RankRecording& rec = recs[static_cast<size_t>(r)];
    for (const auto& [name, grank] : rec.groups) {
      MLS_CHECK_EQ(plan.find_group(name)->rank_of(r), grank)
          << "group '" << name << "' does not rank members by world rank";
    }
    std::sort(rec.events.begin(), rec.events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [order, e] : rec.events) {
      plan.ranks[static_cast<size_t>(r)].push_back(std::move(e));
    }
  }
  return plan;
}

}  // namespace

Plan record_train_iteration(const model::ModelConfig& cfg,
                            pipeline::Schedule schedule) {
  cfg.validate();
  Rng rng(cfg.seed);
  auto draw = [&] {
    std::vector<int64_t> v(static_cast<size_t>(cfg.s * cfg.b));
    for (auto& x : v) {
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    }
    return v;
  };
  std::vector<std::vector<int64_t>> tokens, targets;
  for (int64_t mb = 0; mb < cfg.total_microbatches(); ++mb) {
    tokens.push_back(draw());
    targets.push_back(draw());
  }
  pipeline::PipelineOptions popts;
  popts.schedule = schedule;
  return record(cfg.t * cfg.p * cfg.d, [&](comm::Comm& world) {
    pipeline::PipelineEngine engine(cfg, world, popts);
    engine.run_iteration(tokens, targets);
    return std::vector<comm::Comm>{world, engine.tp_comm(), engine.pp_comm(),
                                   engine.dp_comm()};
  });
}

Plan record_decode(const model::ModelConfig& cfg, int steps, int64_t rows,
                   int64_t samples) {
  cfg.validate();
  MLS_CHECK(rows >= 1 && samples >= 0 && samples <= rows);
  MLS_CHECK(steps >= 0 && steps <= cfg.s);
  return record(cfg.t, [&](comm::Comm& world) {
    model::GPTModel model(cfg, world);
    model.set_inference(true);
    serve::DecodeEngine engine(model);
    auto cache = serve::make_paged_kv_cache(engine.layout(), rows * cfg.s);
    std::vector<std::unique_ptr<serve::SequenceKV>> seqs;
    for (int64_t i = 0; i < rows; ++i) seqs.push_back(cache->create(cfg.s));
    for (int step = 0; step < steps; ++step) {
      std::vector<serve::DecodeRow> batch;
      for (int64_t i = 0; i < rows; ++i) {
        serve::DecodeRow row;
        row.token = (step * rows + i) % cfg.v;
        row.position = step;
        row.kv = seqs[static_cast<size_t>(i)].get();
        row.sample = i < samples;
        MLS_CHECK(row.kv->reserve(row.position));
        batch.push_back(row);
      }
      engine.step(batch);
    }
    return std::vector<comm::Comm>{world};
  });
}

}  // namespace mls::verify
