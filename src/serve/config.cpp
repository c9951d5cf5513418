#include "serve/config.h"

#include "common/check.h"

namespace mls::serve {

void ServeConfig::validate() const {
  MLS_CHECK_GT(block_tokens, 0);
  MLS_CHECK_GE(kv_budget_tokens, block_tokens)
      << "KV budget smaller than one block";
  MLS_CHECK_GT(max_batch, 0);
  MLS_CHECK(soft_pct > 0 && soft_pct <= hard_pct && hard_pct <= 1.0)
      << "watermarks must order 0 < soft <= hard <= 1 (soft=" << soft_pct
      << " hard=" << hard_pct << ")";
  MLS_CHECK(!overlap)
      << "ServeConfig::overlap is not supported: the split-batch overlapped "
         "decode was deleted; the field remains only for perfbench/serve.cpp, "
         "which assigns false";
}

}  // namespace mls::serve
