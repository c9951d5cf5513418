// Autoregressive generation from a trained GPTModel.
//
// Greedy or temperature sampling over the full (gathered) vocabulary;
// the sampling RNG is a pure function of (seed, step), so every
// tensor-parallel rank draws the same token and the model state stays
// consistent without extra communication. Requires a whole-model
// instance with microbatch size 1; the context is the model's trained
// sequence length. Positions beyond it are an explicit error
// (ContextOverflowError) — the model has no positional embedding for
// them, and silently sliding the window would change every cached
// position's meaning (the serving plane in src/serve relies on
// positions being stable to reuse KV entries).
#pragma once

#include <cstdint>
#include <vector>

#include "model/gpt.h"

namespace mls::model {

// Structured out-of-window error: generation needed a position at or
// beyond the trained sequence length. Carries the numbers so callers
// (the serve scheduler, tests) can react without parsing the message.
class ContextOverflowError : public Error {
 public:
  ContextOverflowError(int64_t position, int64_t context);
  int64_t position() const { return position_; }  // position requested
  int64_t context() const { return context_; }    // trained limit (s)

 private:
  int64_t position_;
  int64_t context_;
};

struct GenerateOptions {
  int64_t max_new_tokens = 16;
  // 0 = greedy argmax; otherwise softmax(logits / temperature) sampling.
  float temperature = 0.0f;
  uint64_t seed = 1;
  // Early termination: generation stops right after sampling any of
  // these tokens (the stop token IS included in the returned sequence,
  // mirroring serve's FinishReason::kCompleted retirement).
  std::vector<int64_t> stop_tokens{};
};

// Draws the next token from a full-vocabulary logits row: argmax at
// temperature 0, otherwise inverse-CDF sampling with a deterministic
// per-(seed, step) uniform — identical on every rank. `step` is the
// index of the token being generated (0-based). Shared by generate()
// and the serve decode path so both sample bit-identically.
int64_t sample_token(const float* logits, int64_t vocab, float temperature,
                     uint64_t seed, int64_t step);
int64_t sample_token(const Tensor& logits, float temperature, uint64_t seed,
                     int64_t step);

// Throws ContextOverflowError if generating `max_new_tokens` would need
// a position >= cfg.s (the first sampled token comes "free": its input
// position is prompt.size() - 1).
std::vector<int64_t> generate(GPTModel& model,
                              const std::vector<int64_t>& prompt,
                              const GenerateOptions& opts = {});

}  // namespace mls::model
