// The chunk schedule of the ring collectives (comm.cpp): how a length-n
// buffer splits into near-equal chunks, and which chunk a rank receives
// from its left neighbour at each step of a phase. The runtime loops
// move data by it and the static verifier predicts their traffic by it
// (analysis/static/verify.h), so there is one definition of the ring.
#pragma once

#include <cstdint>

namespace mls::comm {

// Offset of chunk i of a length-n buffer divided into `parties`
// near-equal parts (chunk i is [ring_chunk_ofs(i), ring_chunk_ofs(i+1))).
inline int64_t ring_chunk_ofs(int64_t n, int parties, int i) {
  return n * i / parties;
}

// The neighbour rank r receives from.
inline int ring_left(int rank, int parties) {
  return ((rank - 1) % parties + parties) % parties;
}

// A ring reduce-scatter leaves rank r owning the full sum of chunk r; a
// ring all-gather starts from that state and ends with every chunk
// everywhere. Each runs parties-1 steps.
enum class RingPhase { kReduceScatter, kAllGather };

// The chunk rank r receives (and, in a reduce-scatter, accumulates) at
// step s, 0 <= s <= parties-2.
inline int ring_step_chunk(RingPhase phase, int rank, int step, int parties) {
  const int lag = phase == RingPhase::kReduceScatter ? 2 : 1;
  return ((rank - lag - step) % parties + parties) % parties;
}

// Elements rank r receives over one whole phase on a length-n buffer.
inline int64_t ring_phase_elems(RingPhase phase, int64_t n, int rank,
                                int parties) {
  int64_t elems = 0;
  for (int s = 0; s <= parties - 2; ++s) {
    const int c = ring_step_chunk(phase, rank, s, parties);
    elems += ring_chunk_ofs(n, parties, c + 1) - ring_chunk_ofs(n, parties, c);
  }
  return elems;
}

}  // namespace mls::comm
