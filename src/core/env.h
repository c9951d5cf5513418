// ParallelEnv: the per-rank execution context for the paper's parallel
// transformer — the tensor-parallel communicator plus the plan and
// recompute settings for the two techniques under study.
#pragma once

#include <cstdint>
#include <string>

#include "comm/comm.h"

namespace mls::core {

// Process-environment switches (the MLS_* variables, e.g. the comm
// analyzer's MLS_COMM_WATCHDOG — see src/analysis/ledger.h). Reads go through a programmatic override map
// first so tests can toggle behaviour without mutating the real
// environment of a multi-threaded process (setenv is not thread-safe).
struct Env {
  // "1/true/on/yes" (any case) -> true; "0/false/off/no" -> false;
  // unset or unparsable -> def.
  static bool flag(const char* name, bool def);
  static int64_t integer(const char* name, int64_t def);
  static double real(const char* name, double def);
  static std::string str(const char* name, const std::string& def);
  // Test-only overrides; shadow getenv until cleared.
  static void set(const std::string& name, const std::string& value);
  static void clear(const std::string& name);
};

// Which activations to recompute (paper §5).
enum class Recompute {
  kNone,       // store everything (baseline "no recompute")
  kSelective,  // recompute only the attention core (Fig 3 red box)
  kFull,       // checkpoint whole transformer layers
};

const char* recompute_name(Recompute r);

class ParallelPlan;

// Which parallel plan wires the layers (see core/parallel_plan.h).
enum class PlanKind {
  kTensorParallel,  // f/f̄ only, replicated outer region (Fig 4)
  kTensorSequence,  // f/f̄ + g/ḡ, sequence-sharded outer region (Fig 5)
  kFoldedTsp,       // TP+SP with pointwise-recomputable activations
                    // folded into their consumer GEMMs (arXiv 2604.26294)
};

const char* plan_kind_name(PlanKind k);
// Parses the MLS_PLAN spellings "tp" / "tp_sp" / "folded_tsp" (the
// plan_kind_name strings) and the short forms "sp" / "folded". Throws on
// anything else.
PlanKind plan_kind_from_string(const std::string& s);
const ParallelPlan& tp_plan();  // core/parallel_plan.h

struct ParallelEnv {
  // Tensor-parallel group. Size 1 == serial execution (the reference
  // used by the equivalence tests).
  comm::Comm tp;

  // §4.2.2 final paragraph: with sequence parallelism, store only this
  // rank's Y-shard for linear-layer backward and re-all-gather it
  // during back-propagation. On by default (as in the paper); exposed
  // as a switch for the ablation bench.
  bool sharded_input_save = true;

  Recompute recompute = Recompute::kNone;

  // The layer-wiring strategy: which collectives fire where, what is
  // saved, and whether the outer region (layer-norms, dropouts, residual
  // stream) is sharded along the sequence dimension (paper §4.2.2; needs
  // s % tp.size() == 0). Points at a plan singleton, tp_plan() unless
  // set (model::make_env fills it from a ModelConfig).
  const ParallelPlan* parallel_plan = &tp_plan();
  const ParallelPlan& plan() const { return *parallel_plan; }

  // Base seed; all dropout masks derive from (seed, site, microbatch).
  uint64_t seed = 0x5eed;
  // Advanced by the trainer so every microbatch gets fresh dropout.
  int64_t microbatch = 0;
  // Inference mode: dropout layers become identities (p = 0).
  bool inference = false;

  float effective_dropout(float p) const { return inference ? 0.0f : p; }

  int tp_rank() const { return tp.valid() ? tp.rank() : 0; }
  int tp_size() const { return tp.valid() ? tp.size() : 1; }

  // Deterministic dropout seed for a given dropout site id.
  uint64_t dropout_seed(uint64_t site) const {
    // splitmix64-style mixing of (seed, site, microbatch).
    uint64_t x = seed + 0x9e3779b97f4a7c15ull * (site + 1) +
                 0xbf58476d1ce4e5b9ull * static_cast<uint64_t>(microbatch + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

}  // namespace mls::core
