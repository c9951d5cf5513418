#include "train/trainer.h"

#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "analysis/ledger.h"
#include "fault/inject.h"
#include "serialize/checkpoint_io.h"

namespace mls::train {

namespace {

// Checkpoint tensors are float32; a u64 (RNG seed) survives exactly as
// four 16-bit pieces (every value < 2^24 is exact in a float).
Tensor pack_u64(uint64_t v) {
  Tensor t = Tensor::empty(Shape{{4}});
  for (int i = 0; i < 4; ++i) {
    t.data()[i] = static_cast<float>((v >> (16 * i)) & 0xffffull);
  }
  return t;
}

uint64_t unpack_u64(const Tensor& t) {
  MLS_CHECK_EQ(t.numel(), 4);
  uint64_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint64_t>(t.data()[i]) << (16 * i);
  }
  return v;
}

}  // namespace

Trainer::Trainer(const model::ModelConfig& cfg, comm::Comm& world,
                 TrainerOptions opts)
    : cfg_(cfg), opts_(std::move(opts)), world_(world) {
  engine_ = std::make_unique<pipeline::PipelineEngine>(cfg_, world,
                                                       opts_.pipeline);
  if (opts_.pressure.enabled()) {
    monitor_ = std::make_unique<memory::PressureMonitor>(opts_.pressure);
    governor_ = std::make_unique<memory::RecomputeGovernor>(opts_.pressure,
                                                            cfg_.recompute);
  }
  if (opts_.use_adam) {
    adam_ = std::make_unique<optim::Adam>(engine_->params(), opts_.lr);
  } else {
    sgd_ = std::make_unique<optim::Sgd>(engine_->params(), opts_.lr);
  }
}

float Trainer::lr_at(int64_t it) const {
  const float lr = opts_.lr;
  if (opts_.warmup_steps > 0 && it < opts_.warmup_steps) {
    return lr * static_cast<float>(it + 1) /
           static_cast<float>(opts_.warmup_steps);
  }
  if (opts_.decay_steps > 0) {
    const double progress =
        std::min(1.0, static_cast<double>(it - opts_.warmup_steps) /
                          static_cast<double>(opts_.decay_steps));
    const double cosine = 0.5 * (1.0 + std::cos(M_PI * progress));
    const double floor = opts_.min_lr_fraction;
    return lr * static_cast<float>(floor + (1.0 - floor) * cosine);
  }
  return lr;
}

float Trainer::clip_gradients() {
  // Global L2 norm with every distinct parameter counted exactly once:
  //  * sharded params contribute their local shard on every tp rank;
  //  * replicated params contribute only on tp rank 0;
  //  * the head-stage duplicate of the tied embedding is skipped (the
  //    embedding-stage copy carries the identical synced gradient).
  auto& engine = *engine_;
  double local_sq = 0;
  for (int c = 0; c < engine.num_chunks(); ++c) {
    auto& m = engine.chunk_model(c);
    const bool tp_rank0 = m.env().tp_rank() == 0;
    const ag::GradRecord* tied_duplicate =
        (m.spec().has_head && !m.spec().has_embedding)
            ? m.word_table().record().get()
            : nullptr;
    std::unordered_set<const ag::GradRecord*> replicated;
    if (!tp_rank0) {
      for (const auto& p : m.replicated_params()) {
        replicated.insert(p.record().get());
      }
    }
    for (const auto& p : m.params()) {
      if (!p.has_grad()) continue;
      if (p.record().get() == tied_duplicate) continue;
      if (replicated.count(p.record().get())) continue;
      const float* g = p.grad().data();
      for (int64_t i = 0; i < p.numel(); ++i) {
        local_sq += static_cast<double>(g[i]) * g[i];
      }
    }
  }
  Tensor sq = Tensor::scalar(static_cast<float>(local_sq));
  analysis::SiteGuard sg("trainer.grad_norm");
  world_.all_reduce(sq);
  // Every parameter exists on each of the d data-parallel replicas (with
  // identical post-all-reduce grads), so the world sum counts it d times.
  const float norm = std::sqrt(sq.item() / static_cast<float>(cfg_.d));
  if (opts_.grad_clip > 0 && norm > opts_.grad_clip) {
    const float scale = opts_.grad_clip / norm;
    for (auto& p : engine.params()) {
      if (p.has_grad()) p.record()->grad.mul_(scale);
    }
  }
  return norm;
}

serialize::NamedTensors Trainer::state_items() const {
  serialize::NamedTensors items;
  const auto params = engine_->params();
  for (size_t i = 0; i < params.size(); ++i) {
    items.emplace_back("param" + std::to_string(i) + ":" + params[i].name(),
                       params[i].value());
  }
  if (adam_) {
    auto& m = adam_->m_state();
    auto& v = adam_->v_state();
    for (size_t i = 0; i < m.size(); ++i) {
      items.emplace_back("adam_m" + std::to_string(i), m[i]);
      items.emplace_back("adam_v" + std::to_string(i), v[i]);
    }
    items.emplace_back("adam_t",
                       Tensor::scalar(static_cast<float>(adam_->step_count())));
  }
  items.emplace_back("iteration",
                     Tensor::scalar(static_cast<float>(iteration_)));
  // Per-chunk RNG state: the dropout stream is a pure function of
  // (seed, site, microbatch), so seed + microbatch counter IS the full
  // generator state. Restoring them makes resumed masks bit-identical
  // even if the chunk envs were constructed with different defaults.
  for (int c = 0; c < engine_->num_chunks(); ++c) {
    const auto& env = engine_->chunk_model(c).env();
    items.emplace_back("rng_seed_c" + std::to_string(c), pack_u64(env.seed));
    items.emplace_back(
        "rng_mb_c" + std::to_string(c),
        pack_u64(static_cast<uint64_t>(env.microbatch)));
  }
  items.emplace_back("global_step",
                     Tensor::scalar(static_cast<float>(iteration_)));
  return items;
}

void Trainer::load_state_items(const serialize::NamedTensors& items) {
  size_t idx = 0;
  auto take = [&](const std::string& expect_prefix) -> Tensor {
    MLS_CHECK_LT(idx, items.size()) << "truncated checkpoint";
    MLS_CHECK(items[idx].first.rfind(expect_prefix, 0) == 0)
        << "checkpoint entry '" << items[idx].first << "' where '"
        << expect_prefix << "...' expected (configuration mismatch?)";
    return items[idx++].second;
  };
  auto params = engine_->params();
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor t = take("param" + std::to_string(i) + ":");
    MLS_CHECK(t.shape() == params[i].value().shape())
        << "shape mismatch for " << params[i].name();
    params[i].mutable_value().copy_from(t);
    params[i].zero_grad();
  }
  if (adam_) {
    auto& m = adam_->m_state();
    auto& v = adam_->v_state();
    for (size_t i = 0; i < m.size(); ++i) {
      m[i].copy_from(take("adam_m" + std::to_string(i)));
      v[i].copy_from(take("adam_v" + std::to_string(i)));
    }
    adam_->set_step_count(static_cast<int64_t>(take("adam_t").item()));
  }
  iteration_ = static_cast<int64_t>(take("iteration").item());
  // RNG + step entries were appended in a later format revision; accept
  // their absence so older checkpoints keep loading.
  if (idx < items.size() && items[idx].first.rfind("rng_seed_c", 0) == 0) {
    for (int c = 0; c < engine_->num_chunks(); ++c) {
      auto& env = engine_->chunk_model(c).env();
      env.seed = unpack_u64(take("rng_seed_c" + std::to_string(c)));
      env.microbatch =
          static_cast<int64_t>(unpack_u64(take("rng_mb_c" + std::to_string(c))));
    }
    const int64_t gstep = static_cast<int64_t>(take("global_step").item());
    MLS_CHECK_EQ(gstep, iteration_) << "inconsistent checkpoint step counters";
  }
}

int64_t Trainer::save_generation(serialize::CheckpointStore& store) {
  return store.commit(world_, state_items());
}

int64_t Trainer::restore_latest(serialize::CheckpointStore& store) {
  serialize::NamedTensors items;
  const int64_t gen = store.restore_latest(world_, items);
  if (gen >= 0) load_state_items(items);
  return gen;
}

// The lockstep agreement behind recompute escalation: every rank
// samples its own arena, then the world Max-reduces the level (the
// PressureLevel encoding orders kLow < kNone < kSoft < kHard), so one
// pressured rank escalates everyone and de-escalation waits for every
// rank to be low. Feeding the agreed level to per-rank governors with
// identical state keeps all ranks on the same rung without a second
// collective.
core::Recompute Trainer::agree_recompute() {
  const memory::PressureLevel local = monitor_->sample();
  Tensor lvl = Tensor::scalar(static_cast<float>(static_cast<int>(local)));
  {
    analysis::SiteGuard sg("trainer.pressure");
    world_.all_reduce(lvl, comm::ReduceOp::Max);
  }
  const auto agreed = static_cast<memory::PressureLevel>(
      static_cast<int>(lvl.item()));
  const core::Recompute before = governor_->current();
  const core::Recompute rc = governor_->on_level(agreed);
  if (rc != before && world_.rank() == 0) {
    std::fprintf(stderr,
                 "[pressure] step %lld: level %s, recompute %s -> %s "
                 "(%lld escalations, %lld de-escalations)\n",
                 static_cast<long long>(iteration_),
                 memory::pressure_level_name(agreed),
                 core::recompute_name(before), core::recompute_name(rc),
                 static_cast<long long>(governor_->stats().escalations),
                 static_cast<long long>(governor_->stats().deescalations));
  }
  return rc;
}

StepResult Trainer::step(const std::vector<data::Batch>& microbatches) {
  // Fault-plane context for this step: tags this thread with (world
  // rank, step) so a plan can target "rank 2 at step 3"; on_step fires
  // site-less crash events. Both are a single atomic load when no plan
  // is armed.
  fault::TrainScope fault_scope(world_.rank(), iteration_);
  fault::on_step(world_.rank(), iteration_);

  if (governor_) engine_->set_recompute(agree_recompute());

  std::vector<std::vector<int64_t>> tokens, targets;
  tokens.reserve(microbatches.size());
  targets.reserve(microbatches.size());
  for (const auto& mb : microbatches) {
    tokens.push_back(mb.tokens);
    targets.push_back(mb.targets);
  }

  engine_->zero_grads();
  const auto stats = engine_->run_iteration(tokens, targets, iteration_);

  StepResult result;
  result.loss = stats.loss;
  result.peak_activation_bytes = stats.peak_activation_bytes;
  result.recompute = engine_->recompute();
  result.grad_norm = opts_.grad_clip > 0 ? clip_gradients() : 0.0f;
  result.lr = lr_at(iteration_);

  if (adam_) {
    adam_->set_lr(result.lr);
    adam_->step();
  } else {
    sgd_->set_lr(result.lr);
    sgd_->step();
  }
  ++iteration_;
  return result;
}

ResilientResult run_resilient(const model::ModelConfig& cfg,
                              fault::Rendezvous& rdv, int rank,
                              const TrainerOptions& topts,
                              const ResilientOptions& ropts,
                              const std::vector<std::vector<data::Batch>>& steps) {
  MLS_CHECK(!ropts.ckpt_dir.empty()) << "run_resilient needs a checkpoint dir";
  fault::maybe_arm_from_env();

  ResilientResult res;
  res.losses.assign(steps.size(), 0.0f);
  const int64_t total = static_cast<int64_t>(steps.size());
  // Furthest step any attempt completed; replay below it is re-done work.
  int64_t max_reached = 0;

  for (;;) {
    comm::Comm world = rdv.next_world(rank);
    try {
      serialize::CheckpointStore store(ropts.ckpt_dir, ropts.keep_generations);
      Trainer trainer(cfg, world, topts);
      int64_t gen = -1;
      try {
        gen = trainer.restore_latest(store);
      } catch (const serialize::RestoreError& e) {
        // Every committed generation is corrupt. This loop still holds
        // the full input stream, so replaying from step 0 is correct —
        // but it is an explicit, logged decision here, not a silent
        // fallback inside the store (every rank threw together, so
        // every rank lands on the same decision).
        if (ropts.log && rank == 0) {
          std::fprintf(stderr, "[elastic] %s; replaying from step 0\n",
                       e.what());
        }
      }
      if (res.restarts > 0) {
        res.restored_gens.push_back(gen);
        res.steps_replayed += max_reached - trainer.iteration();
        if (ropts.log && rank == 0) {
          std::fprintf(stderr,
                       "[elastic] rank %d restored generation %lld, resuming "
                       "at step %lld/%lld\n",
                       rank, static_cast<long long>(gen),
                       static_cast<long long>(trainer.iteration()),
                       static_cast<long long>(total));
        }
      }
      while (trainer.iteration() < total) {
        const int64_t it = trainer.iteration();
        const StepResult r = trainer.step(steps[static_cast<size_t>(it)]);
        res.losses[static_cast<size_t>(it)] = r.loss;
        max_reached = std::max(max_reached, it + 1);
        // Commit on the cadence and always after the final step, so a
        // completed run never depends on the cadence dividing `total`.
        if ((it + 1) % ropts.ckpt_every == 0 || it + 1 == total) {
          // The save runs collectives and I/O on behalf of the step that
          // just finished; keep the fault context pointing at it.
          fault::TrainScope scope(world.rank(), it);
          trainer.save_generation(store);
        }
      }
      return res;
    } catch (const std::exception& e) {
      // First failure anywhere wins; this rank's own error may be a
      // secondary "another rank failed" fan-out.
      world.poison(std::string("rank ") + std::to_string(rank) +
                   " failed: " + e.what());
      std::string reason = world.poison_reason();
      if (reason.empty()) reason = e.what();
      ++res.restarts;
      res.failure_reasons.push_back(reason);
      if (ropts.log && rank == 0) {
        std::fprintf(stderr,
                     "[elastic] restart %d/%d: %s\n"
                     "[elastic] world torn down; re-rendezvousing\n",
                     res.restarts, ropts.max_restarts, reason.c_str());
      }
      if (res.restarts > ropts.max_restarts) {
        rdv.fail(reason);
        throw;
      }
    }
  }
}

}  // namespace mls::train
