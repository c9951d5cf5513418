#include "model/config.h"

#include <utility>

#include "common/check.h"
#include "core/parallel_plan.h"

namespace mls::model {

namespace {
ModelConfig paper_base() {
  ModelConfig c;
  c.s = 2048;
  c.v = 51200;
  c.t = 8;
  c.dropout_p = 0.1f;
  return c;
}
}  // namespace

// Table 3. "no data parallelism is used in our evaluations ... batch
// sizes as well as total number of GPUs are set to a value much lower
// than the ones in the end-to-end training."
ModelConfig ModelConfig::gpt_22b() {
  ModelConfig c = paper_base();
  c.name = "22B";
  c.a = 64;
  c.h = 6144;
  c.L = 48;
  c.p = 1;
  c.global_batch = 4;
  c.b = 4;
  return c;
}

ModelConfig ModelConfig::gpt_175b() {
  ModelConfig c = paper_base();
  c.name = "175B";
  c.a = 96;
  c.h = 12288;
  c.L = 96;
  c.p = 8;
  c.global_batch = 64;
  c.b = 1;
  c.interleave_m = 3;  // §6: interleaving with three stages for 175B/530B
  return c;
}

ModelConfig ModelConfig::gpt_530b() {
  ModelConfig c = paper_base();
  c.name = "530B";
  c.a = 128;
  c.h = 20480;
  c.L = 105;
  c.p = 35;
  c.global_batch = 280;
  c.b = 1;
  c.interleave_m = 3;
  return c;
}

ModelConfig ModelConfig::gpt_1t() {
  ModelConfig c = paper_base();
  c.name = "1T";
  c.a = 160;
  c.h = 25600;
  c.L = 128;
  c.p = 64;
  c.global_batch = 512;
  c.b = 1;
  return c;
}

ModelConfig ModelConfig::tiny(int t, int64_t layers) {
  ModelConfig c;
  c.name = "tiny";
  c.a = 4;
  c.h = 32;
  c.L = layers;
  c.s = 16;
  c.v = 96;
  c.b = 2;
  c.global_batch = 2;
  c.t = t;
  return c;
}

const core::ParallelPlan& ModelConfig::plan() const {
  return core::plan_for(parallel_plan);
}

int64_t ModelConfig::s_local() const {
  return plan().sequence_sharded() ? s / t : s;
}

void ModelConfig::validate() const {
  MLS_CHECK_EQ(h % a, 0) << "hidden must divide heads";
  MLS_CHECK_EQ(a % t, 0) << "heads must divide tp size";
  MLS_CHECK_EQ(v % t, 0) << "vocab must divide tp size";
  MLS_CHECK_EQ(L % p, 0) << "layers must divide pipeline size";
  MLS_CHECK_EQ(global_batch % (static_cast<int64_t>(b) * d), 0)
      << "global batch must divide microbatch size x data-parallel size";
  if (plan().sequence_sharded()) {
    MLS_CHECK_EQ(s % t, 0) << "sequence parallelism needs s divisible by t";
  }
  if (interleave_m > 1) {
    MLS_CHECK_EQ(L % (static_cast<int64_t>(p) * interleave_m), 0)
        << "interleaving needs L divisible by p*m";
  }
}

core::ParallelEnv make_env(const ModelConfig& cfg, comm::Comm tp) {
  core::ParallelEnv env;
  env.tp = std::move(tp);
  env.parallel_plan = &cfg.plan();
  env.sharded_input_save = cfg.sharded_input_save;
  env.recompute = cfg.recompute;
  env.seed = cfg.seed;
  return env;
}

}  // namespace mls::model
