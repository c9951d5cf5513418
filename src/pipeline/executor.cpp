#include "pipeline/executor.h"

#include "analysis/ledger.h"
#include "autograd/engine.h"
#include "common/memtracker.h"
#include "memory/activation_model.h"

namespace mls::pipeline {

using ag::Var;

PipelineEngine::PipelineEngine(const model::ModelConfig& cfg, comm::Comm& world,
                               PipelineOptions opts)
    : cfg_(cfg), opts_(std::move(opts)) {
  cfg_.validate();
  MLS_CHECK_EQ(world.size(), cfg_.t * cfg_.p * cfg_.d)
      << "world must be tp x pp x dp";
  // Megatron grid order (tp fastest, then pp, then dp):
  //   world rank = dp_rank * (p*t) + pp_rank * t + tp_rank.
  analysis::SiteGuard sg("pipeline.grid_split");
  const int grid = cfg_.t * cfg_.p;
  tp_ = world.split(world.rank() / cfg_.t);
  pp_ = world.split((1 << 20) |
                    ((world.rank() / grid) * cfg_.t + world.rank() % cfg_.t));
  dp_ = world.split((1 << 21) | (world.rank() % grid));
  MLS_CHECK_EQ(tp_.size(), cfg_.t);
  MLS_CHECK_EQ(pp_.size(), cfg_.p);
  MLS_CHECK_EQ(dp_.size(), cfg_.d);

  const int m = cfg_.interleave_m;
  const int64_t layers_per_chunk = cfg_.L / (static_cast<int64_t>(cfg_.p) * m);
  last_stage_ = cfg_.p * m - 1;
  for (int c = 0; c < m; ++c) {
    const int v = virtual_stage(c);
    model::StageSpec spec;
    spec.layer_begin = v * layers_per_chunk;
    spec.layer_end = (v + 1) * layers_per_chunk;
    spec.has_embedding = (v == 0);
    spec.has_head = (v == last_stage_);
    chunks_.push_back(std::make_unique<model::GPTModel>(cfg_, tp_, spec));
  }
}

int PipelineEngine::fwd_tag(int boundary, int mb) const {
  return ((mb * (last_stage_ + 2) + boundary) << 1);
}

int PipelineEngine::bwd_tag(int boundary, int mb) const {
  return ((mb * (last_stage_ + 2) + boundary) << 1) | 1;
}

IterationStats PipelineEngine::run_iteration(
    const std::vector<std::vector<int64_t>>& tokens,
    const std::vector<std::vector<int64_t>>& targets, int64_t iteration) {
  // The caller provides the full global batch; this replica processes
  // its contiguous slice of total/d microbatches.
  const int n = static_cast<int>(cfg_.microbatches());
  MLS_CHECK_EQ(static_cast<int>(tokens.size()), cfg_.total_microbatches());
  MLS_CHECK_EQ(static_cast<int>(targets.size()), cfg_.total_microbatches());
  const int mb_base = dp_.rank() * n;
  const int m = cfg_.interleave_m;

  auto& mt = MemoryTracker::instance();
  IterationStats stats;

  // Appendix C bookkeeping: per-microbatch store-all vs checkpoint cost
  // from the analytical model (what a real system would estimate).
  const double store_all_per_layer = memory::act_bytes_per_layer(
      cfg_, {cfg_.parallel_plan, core::Recompute::kNone});
  const int64_t layers_per_chunk = cfg_.L / (static_cast<int64_t>(cfg_.p) * m);
  const core::Recompute fallback = cfg_.recompute == core::Recompute::kNone
                                       ? core::Recompute::kFull
                                       : cfg_.recompute;

  struct MbState {
    Var input;   // undefined on the first virtual stage
    Var output;  // block output, or the loss Var on the last stage
    int64_t extra_output_bytes = 0;  // charged when the output is kept
  };
  std::map<std::pair<int, int>, MbState> live;  // (mb, chunk) -> state

  double loss_sum = 0;
  const auto ops =
      build_schedule(opts_.schedule, cfg_.p, pp_.rank(), n, m);

  auto boundary_send = [&](const char* site, int dst, int tag, const Tensor& t) {
    analysis::SiteGuard sg(site);
    pp_.send(dst, tag, t);
  };

  for (const auto& op : ops) {
    const int v = virtual_stage(op.chunk);
    auto& model = *chunks_[static_cast<size_t>(op.chunk)];
    const std::pair<int, int> key{op.microbatch, op.chunk};

    const int global_mb = mb_base + op.microbatch;
    if (op.type == OpType::kForward) {
      // Dropout seeds key on the *global* microbatch index so any
      // (d, p, t) factorization draws the same masks as serial.
      model.set_microbatch(iteration * cfg_.total_microbatches() + global_mb);
      // Appendix C: store everything if it fits the budget, else
      // checkpoint this microbatch.
      core::Recompute rc = cfg_.recompute;
      if (opts_.microbatch_store_budget >= 0) {
        const int64_t would_store = static_cast<int64_t>(
            store_all_per_layer * static_cast<double>(layers_per_chunk));
        rc = (mt.current_major_bytes() + would_store <=
              opts_.microbatch_store_budget)
                 ? core::Recompute::kNone
                 : fallback;
      }
      model.env().recompute = rc;
      if (rc == core::Recompute::kNone) {
        ++stats.microbatches_stored_full;
      } else {
        ++stats.microbatches_checkpointed;
      }

      MbState st;
      Var x;
      if (v == 0) {
        x = model.embed(tokens[static_cast<size_t>(global_mb)]);
        st.output = model.transformer_forward(x);
      } else {
        Tensor in;
        {
          analysis::SiteGuard rsg("pp.fwd_recv");
          in = pp_.recv(rank_of_stage(v - 1), fwd_tag(v, op.microbatch));
        }
        x = Var(std::move(in), /*requires_grad=*/true);
        st.input = x;
        st.output = model.transformer_forward(x);
      }
      if (v == last_stage_) {
        Var loss = model.head_loss(st.output,
                                   targets[static_cast<size_t>(global_mb)]);
        loss_sum += loss.item();
        st.output = loss;
      } else {
        boundary_send("pp.fwd_send", rank_of_stage(v + 1),
                      fwd_tag(v + 1, op.microbatch), st.output.value());
        if (opts_.deallocate_outputs) {
          // Appendix B: the output's data is redundant with the next
          // stage's input from here on (send hands the receiver a copy).
          st.output.mutable_value().release();
        } else {
          st.extra_output_bytes = st.output.value().logical_bytes();
          mt.on_alloc_extra(st.extra_output_bytes);
        }
      }
      live.emplace(key, std::move(st));
    } else {  // backward
      auto it = live.find(key);
      MLS_CHECK(it != live.end()) << "backward for unknown microbatch";
      MbState st = std::move(it->second);
      live.erase(it);

      if (v == last_stage_) {
        // Mean loss over microbatches: dL/dloss_mb = 1/n.
        ag::backward(st.output, Tensor::scalar(1.0f / static_cast<float>(n)));
      } else {
        Tensor dy;
        {
          analysis::SiteGuard rsg("pp.bwd_recv");
          dy = pp_.recv(rank_of_stage(v + 1), bwd_tag(v + 1, op.microbatch));
        }
        ag::backward(st.output, dy);
      }
      if (v > 0) {
        boundary_send("pp.bwd_send", rank_of_stage(v - 1),
                      bwd_tag(v, op.microbatch), st.input.grad());
      }
      if (st.extra_output_bytes > 0) mt.on_free_extra(st.extra_output_bytes);
    }
  }
  MLS_CHECK(live.empty()) << "unbalanced schedule";

  // Post-iteration synchronizations (within the replica first, then the
  // data-parallel gradient all-reduce across replicas — §6.3).
  sync_tied_word_embeddings();
  for (auto& c : chunks_) c->sync_grads_after_backward();
  if (cfg_.d > 1) {
    analysis::SiteGuard sg("dp.grad_all_reduce");
    const float inv_d = 1.0f / static_cast<float>(cfg_.d);
    for (auto& p : params()) {
      if (!p.has_grad()) continue;
      Tensor g = p.grad();
      dp_.all_reduce(g);
      g.mul_(inv_d);  // replicas hold per-replica means; average them
    }
  }

  // Broadcast the mean loss from the last pipeline rank to all, then
  // average across data-parallel replicas.
  Tensor loss_t = Tensor::scalar(static_cast<float>(loss_sum / n));
  {
    analysis::SiteGuard sg("pp.loss_broadcast");
    pp_.broadcast(loss_t, rank_of_stage(last_stage_));
  }
  if (cfg_.d > 1) {
    analysis::SiteGuard sg("dp.loss_all_reduce");
    dp_.all_reduce(loss_t);
    loss_t.mul_(1.0f / static_cast<float>(cfg_.d));
  }
  stats.loss = loss_t.item();
  stats.peak_activation_bytes = mt.peak_bytes();
  return stats;
}

void PipelineEngine::sync_tied_word_embeddings() {
  // The word-embedding table is used by the first virtual stage (input
  // embedding) and the last (output projection); when those live in
  // different GPTModel instances their gradient contributions must be
  // summed so the two copies stay identical after the optimizer step.
  analysis::SiteGuard sg("pp.tied_embed_sync");
  const bool has_first = pp_.rank() == rank_of_stage(0) && chunks_.size() >= 1 &&
                         chunks_.front()->spec().has_embedding;
  const int last_rank = rank_of_stage(last_stage_);
  const bool has_last =
      pp_.rank() == last_rank && chunks_.back()->spec().has_head;

  if (has_first && has_last) {
    Var first = chunks_.front()->word_table();
    Var last = chunks_.back()->word_table();
    if (first.record() == last.record()) return;  // single whole-model chunk
    Tensor sum = first.has_grad() ? first.grad().clone()
                                  : Tensor::zeros(first.value().shape());
    if (last.has_grad()) sum.add_(last.grad());
    first.record()->grad = sum.clone();
    last.record()->grad = std::move(sum);
    return;
  }
  constexpr int kTieTag = 1 << 22;
  if (has_first) {
    Var tbl = chunks_.front()->word_table();
    pp_.send(last_rank, kTieTag, tbl.has_grad()
                                     ? tbl.grad()
                                     : Tensor::zeros(tbl.value().shape()));
    tbl.accumulate_grad(pp_.recv(last_rank, kTieTag + 1));
  } else if (has_last) {
    Var tbl = chunks_.back()->word_table();
    Tensor other = pp_.recv(rank_of_stage(0), kTieTag);
    pp_.send(rank_of_stage(0), kTieTag + 1,
             tbl.has_grad() ? tbl.grad() : Tensor::zeros(tbl.value().shape()));
    tbl.accumulate_grad(std::move(other));
  }
}

std::vector<Var> PipelineEngine::params() const {
  std::vector<Var> out;
  for (const auto& c : chunks_) {
    for (auto& p : c->params()) out.push_back(p);
  }
  return out;
}

void PipelineEngine::zero_grads() {
  for (auto& c : chunks_) c->zero_grads();
}

}  // namespace mls::pipeline
