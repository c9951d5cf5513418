#include "comm/spmd.h"

#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "fault/inject.h"
#include "tensor/kernels.h"

namespace mls::spmd {

void run(int world_size, const RankFn& fn) {
  MLS_CHECK_GE(world_size, 1);
  // MLS_FAULT_PLAN works on any SPMD program, not just run_resilient.
  fault::maybe_arm_from_env();
  auto comms = comm::Comm::create_group(world_size);

  std::mutex err_mu;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    threads.emplace_back([&, r] {
      // Rank threads carry their identity into the kernel substrate: it
      // pins this thread to its rank's CPU slice, whose size is the
      // default intra-op thread count.
      kernels::bind_rank(r, world_size);
      // Poison with the failing rank's message so the peers it strands
      // unwind with an error naming the original failure, not just
      // "another rank failed".
      try {
        fn(comms[static_cast<size_t>(r)]);
      } catch (const std::exception& e) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        comms[static_cast<size_t>(r)].poison("rank " + std::to_string(r) +
                                             " failed: " + e.what());
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        comms[static_cast<size_t>(r)].poison("rank " + std::to_string(r) +
                                             " failed");
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mls::spmd
