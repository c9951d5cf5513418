// Text generation: train a small GPT on a deterministic Markov "language"
// under tensor+sequence parallelism with selective recomputation, save a
// checkpoint, reload it, and generate — verifying the sampled sequences
// follow the learned structure.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "comm/spmd.h"
#include "common/check.h"
#include "model/generate.h"
#include "run_main.h"
#include "train/trainer.h"

using namespace mls;

int example() {
  model::ModelConfig cfg = model::ModelConfig::tiny(/*t=*/2, /*layers=*/2);
  cfg.a = 4;
  cfg.h = 48;
  cfg.s = 16;
  cfg.v = 24;
  cfg.b = 1;
  cfg.global_batch = 8;
  cfg.dropout_p = 0.0f;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;

  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "mls_generation_demo").string();
  std::filesystem::remove_all(ckpt_dir);
  serialize::CheckpointStore store(ckpt_dir);

  std::printf("Training a %lld-layer GPT (t=%d, SP + selective recompute) on a\n"
              "deterministic Markov language with %lld tokens...\n\n",
              static_cast<long long>(cfg.L), cfg.t,
              static_cast<long long>(cfg.v));

  spmd::run(cfg.t, [&](comm::Comm& world) {
    train::TrainerOptions opts;
    opts.lr = 4e-3f;
    train::Trainer trainer(cfg, world, opts);
    data::MarkovDataset ds(cfg.v, 1.0, 13);
    float loss = 0;
    for (int i = 0; i < 120; ++i) {
      loss = trainer.step(data::make_microbatches(ds, cfg)).loss;
    }
    trainer.save_generation(store);
    if (world.rank() == 0) {
      std::printf("final training loss: %.4f (uniform baseline ln(%lld) = %.3f)\n",
                  loss, static_cast<long long>(cfg.v),
                  std::log(static_cast<double>(cfg.v)));
    }
  });

  std::printf("\nReloading the checkpoint and generating (greedy):\n");
  spmd::run(cfg.t, [&](comm::Comm& world) {
    train::Trainer trainer(cfg, world, {});
    const int64_t gen = trainer.restore_latest(store);
    MLS_CHECK_EQ(gen, 0) << "no checkpoint to reload";

    // Recover the true successor map for scoring.
    data::MarkovDataset ds(cfg.v, 1.0, 13);
    std::map<int64_t, int64_t> succ;
    auto sample = ds.next_batch(cfg.s, 1);
    for (size_t i = 0; i < sample.tokens.size(); ++i)
      succ[sample.tokens[i]] = sample.targets[i];

    auto& m = trainer.engine().chunk_model(0);
    int correct = 0, total = 0;
    for (int64_t start = 0; start < 4; ++start) {
      model::GenerateOptions gopts;
      gopts.max_new_tokens = 10;
      auto out = model::generate(m, {start}, gopts);
      if (world.rank() == 0) {
        std::printf("  prompt %lld ->", static_cast<long long>(start));
        for (auto t : out) std::printf(" %lld", static_cast<long long>(t));
        std::printf("\n");
      }
      int64_t cur = start;
      for (size_t i = 1; i < out.size(); ++i) {
        auto it = succ.find(cur);
        if (it == succ.end()) break;
        ++total;
        correct += (out[i] == it->second);
        cur = out[i];
      }
    }
    if (world.rank() == 0) {
      std::printf("\n%d/%d generated transitions follow the true chain\n",
                  correct, total);
    }
  });

  std::filesystem::remove_all(ckpt_dir);
  return 0;
}

int main() { return examples::run_main("text_generation", example); }
