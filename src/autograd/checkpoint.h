// Activation checkpointing ("recomputation", Chen et al. 2016).
//
// checkpoint(fn, inputs) runs fn's forward pass with autograd disabled,
// so none of fn's internal activations are saved; only the *inputs* are
// stored (and charged to the tracker). During backward, fn is replayed
// with autograd enabled to rebuild the internal activations, and the
// subgraph is back-propagated immediately.
//
// Full activation recomputation is built on this primitive: fn is an
// entire transformer layer, so only the 2sbh layer input is stored
// (Table 2, last row). Selective recomputation does not checkpoint: it
// runs the one attention-core node (core::attention_core) with the
// Q/K/V-only saved set, which rebuilds one (batch, head) slice at a
// time in backward.
//
// Replay exactness: all stochastic ops in this codebase (dropout) are
// stateless functions of (seed, global element index), so the replay
// reproduces the forward bit-for-bit; tests assert this.
#pragma once

#include <functional>
#include <vector>

#include "autograd/var.h"

namespace mls::ag {

using CheckpointFn = std::function<Var(const std::vector<Var>&)>;

// If grad mode is off (e.g. inside an enclosing checkpoint), this
// degenerates to calling fn directly.
Var checkpoint(const CheckpointFn& fn, const std::vector<Var>& inputs);

}  // namespace mls::ag
