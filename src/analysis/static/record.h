// Plan recorder: builds a verifier Plan by running the real runtime once
// on tiny synthetic data and reading back what its communicators
// recorded (DESIGN.md §12).
//
// Every rank runs with the analyzer on (validation, unbounded flight
// depth) inside an unbudgeted per-rank arena, so MLS_MEM_BUDGET_BYTES
// cannot make a recording throw. Afterwards each rank contributes its
// own ledger stream from every communicator it used — world, and for
// training the tp/pp/dp splits — and the streams are merged back into
// the order the rank issued them (CommRecord::order). Group membership
// comes from each communicator's group_name(). The schedule is
// data-independent, so one run per config stands for every run: the
// pipeline executor and the decode engine are the only definition of
// the collective schedule, and a new parallel plan needs no verifier
// code.
#pragma once

#include <cstdint>

#include "analysis/static/plan.h"
#include "model/config.h"
#include "pipeline/schedule.h"

namespace mls::verify {

// One PipelineEngine::run_iteration over a t*p*d world. Tokens and
// targets are drawn from cfg.seed.
Plan record_train_iteration(
    const model::ModelConfig& cfg,
    pipeline::Schedule schedule = pipeline::Schedule::k1F1B);

// `steps` DecodeEngine::step calls on a t-rank world
// (serve runs the whole model on the world communicator), each over
// `rows` sequences of which the first `samples` sample. At t == 1 the
// engine issues no collectives, so the plan is empty.
Plan record_decode(const model::ModelConfig& cfg, int steps, int64_t rows,
                   int64_t samples);

}  // namespace mls::verify
