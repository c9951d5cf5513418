// Checkpoint I/O tests: file-format round trips, corruption handling,
// and — the strong property — bit-exact training resume across
// save/load, including under the full 3D-parallel grid.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "comm/spmd.h"
#include "serialize/checkpoint_io.h"
#include "serialize/ckpt_store.h"
#include "train/trainer.h"

namespace mls {
namespace {

namespace fs = std::filesystem;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mls_ckpt_" + std::to_string(::testing::UnitTest::GetInstance()
                                             ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  fs::path dir_;
};

TEST_F(SerializeTest, TensorRoundTripPreservesEverything) {
  Rng rng(1);
  serialize::NamedTensors items;
  items.emplace_back("weights", Tensor::randn(Shape{{3, 4}}, rng));
  Tensor mask = Tensor::empty(Shape{{5}}, Dtype::U8);  // 1 byte/element
  const uint8_t bits[5] = {1, 0, 1, 1, 0};
  std::memcpy(mask.u8(), bits, sizeof(bits));
  items.emplace_back("mask", mask);
  items.emplace_back("logits", Tensor::randn(Shape{{2, 2, 2}}, rng, 1.f, Dtype::F32));
  serialize::save_tensors(path("a.ckpt"), items);
  EXPECT_TRUE(serialize::verify_tensors(path("a.ckpt")));

  const auto loaded = serialize::load_tensors(path("a.ckpt"));
  ASSERT_EQ(loaded.size(), 3u);
  for (size_t i = 0; i < items.size(); ++i) {
    const Tensor& got = loaded[i].second;
    const Tensor& want = items[i].second;
    EXPECT_EQ(loaded[i].first, items[i].first);
    EXPECT_EQ(got.dtype(), want.dtype());
    EXPECT_EQ(got.shape(), want.shape());
    if (want.dtype() == Dtype::U8) {
      EXPECT_EQ(std::memcmp(got.u8(), want.u8(), 5), 0);
    } else {
      EXPECT_TRUE(got.allclose(want, 0.f, 0.f));
    }
  }
}

TEST_F(SerializeTest, RejectsMissingAndCorruptFiles) {
  EXPECT_THROW(serialize::load_tensors(path("missing.ckpt")), Error);
  // Garbage header.
  {
    std::FILE* f = std::fopen(path("bad.ckpt").c_str(), "wb");
    std::fputs("not a checkpoint at all", f);
    std::fclose(f);
  }
  EXPECT_THROW(serialize::load_tensors(path("bad.ckpt")), Error);
  // Truncated body.
  {
    Rng rng(2);
    serialize::save_tensors(path("trunc.ckpt"),
                            {{"w", Tensor::randn(Shape{{64}}, rng)}});
    fs::resize_file(path("trunc.ckpt"), 40);
  }
  EXPECT_THROW(serialize::load_tensors(path("trunc.ckpt")), Error);
}

TEST_F(SerializeTest, EmptyCheckpointRoundTrips) {
  serialize::save_tensors(path("empty.ckpt"), {});
  EXPECT_TRUE(serialize::load_tensors(path("empty.ckpt")).empty());
}

// ---------------------------------------------------------- resume

// Trains `total` steps; optionally saves at `save_at` and restores into
// a *fresh* trainer before continuing. Returns the loss trajectory.
std::vector<float> train_with_resume(const model::ModelConfig& cfg,
                                     const std::string& dir, int total,
                                     int save_at, bool resume) {
  data::MarkovDataset ds(cfg.v, 1.0, 5);
  std::vector<std::vector<data::Batch>> batches;
  for (int i = 0; i < total; ++i) batches.push_back(data::make_microbatches(ds, cfg));

  std::vector<float> losses;
  serialize::CheckpointStore store(dir);
  spmd::run(cfg.t * cfg.p * cfg.d, [&](comm::Comm& world) {
    train::TrainerOptions opts;
    opts.lr = 1e-3f;
    std::vector<float> local;
    int64_t saved = -1;
    {
      train::Trainer first(cfg, world, opts);
      for (int i = 0; i < (resume ? save_at : total); ++i) {
        local.push_back(first.step(batches[static_cast<size_t>(i)]).loss);
      }
      if (resume) saved = first.save_generation(store);
    }
    if (resume) {
      train::Trainer second(cfg, world, opts);  // fresh weights
      const int64_t restored = second.restore_latest(store);
      MLS_CHECK_EQ(restored, saved);
      MLS_CHECK_EQ(second.iteration(), save_at);
      for (int i = save_at; i < total; ++i) {
        local.push_back(second.step(batches[static_cast<size_t>(i)]).loss);
      }
    }
    if (world.rank() == 0) losses = local;
  });
  return losses;
}

TEST_F(SerializeTest, ResumeIsBitExactSerial) {
  model::ModelConfig cfg = model::ModelConfig::tiny(1, 2);
  const auto straight = train_with_resume(cfg, dir_.string(), 6, 3, false);
  const auto resumed = train_with_resume(cfg, dir_.string(), 6, 3, true);
  ASSERT_EQ(straight.size(), resumed.size());
  for (size_t i = 0; i < straight.size(); ++i) {
    EXPECT_FLOAT_EQ(straight[i], resumed[i]) << "step " << i;
  }
}

TEST_F(SerializeTest, ResumeIsBitExactUnder3DParallelism) {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.set_plan(core::PlanKind::kTensorSequence);
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 2 * cfg.b;
  const auto straight = train_with_resume(cfg, dir_.string(), 4, 2, false);
  const auto resumed = train_with_resume(cfg, dir_.string(), 4, 2, true);
  ASSERT_EQ(straight.size(), resumed.size());
  for (size_t i = 0; i < straight.size(); ++i) {
    EXPECT_FLOAT_EQ(straight[i], resumed[i]) << "step " << i;
  }
}

TEST_F(SerializeTest, LoadingIntoWrongConfigurationFails) {
  model::ModelConfig cfg = model::ModelConfig::tiny(1, 2);
  serialize::CheckpointStore store(dir_.string());
  spmd::run(1, [&](comm::Comm& world) {
    train::Trainer t(cfg, world, {});
    t.save_generation(store);
  });
  model::ModelConfig bigger = model::ModelConfig::tiny(1, 4);  // more layers
  spmd::run(1, [&](comm::Comm& world) {
    train::Trainer t(bigger, world, {});
    EXPECT_THROW(t.restore_latest(store), Error);
  });
}

}  // namespace
}  // namespace mls
