#include "comm/comm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "analysis/ledger.h"
#include "analysis/watchdog.h"
#include "comm/barrier.h"
#include "common/check.h"
#include "fault/inject.h"
#include "memory/pool_allocator.h"
#include "runtime/stream.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace mls::comm {

// First-failure record shared by a whole communicator hierarchy: the
// root World creates it and every split() descendant aliases it, so no
// matter which group a failure surfaces in (a watchdog on the tp group,
// a crash fanned out from the world), the FIRST reason recorded is the
// root cause and survives for recovery logs (Comm::poison_reason,
// CommHandle::wait).
struct PoisonState {
  mutable std::mutex mu;
  bool poisoned = false;
  std::string reason;

  void set(const std::string& r) {
    std::lock_guard<std::mutex> lock(mu);
    if (!poisoned) {
      poisoned = true;
      reason = r;
    }
  }
  // "" while healthy.
  std::string first_reason() const {
    std::lock_guard<std::mutex> lock(mu);
    return poisoned ? reason : std::string();
  }
};

// Shared state of one communicator. All rank threads hold the same
// World via shared_ptr; per-collective staging goes through `bufs`.
class World {
 public:
  World(int size, std::string name_in, analysis::Options opts_in)
      : size(size),
        name(std::move(name_in)),
        opts(opts_in),
        barrier(size),
        bufs(size, nullptr) {
    // The analyzer is strictly opt-in: without a ledger every
    // collective pays exactly one null-pointer branch. Single-rank
    // groups get a ledger too, so their history is complete for the
    // plan recorder (analysis/static/record.h).
    if (opts.enabled()) {
      ledger = std::make_shared<analysis::Ledger>(name, size, opts);
      // A rank that detects a mismatch is about to throw while its
      // peers head into a rendezvous that can never complete; poison
      // them with the report so every rank unwinds carrying it.
      ledger->set_failure_handler(
          [this](const std::string& report) { poison(report); });
      if (opts.watchdog && size > 1) {  // one rank waits on no peer
        watchdog = std::make_unique<analysis::Watchdog>(
            ledger, [this](const std::string& report) {
              std::fputs((report + "\n").c_str(), stderr);
              poison(report);
            });
      }
    }
  }

  const int size;
  const std::string name;           // analyzer group label
  const analysis::Options opts;     // inherited by split() children
  // Created fresh by create_group; split() re-points children at the
  // parent's so the hierarchy shares one first-failure record.
  std::shared_ptr<PoisonState> poison_state = std::make_shared<PoisonState>();
  // Null unless the analyzer is on; outlives `streams` (declared below)
  // because draining comm-stream tasks still record into it.
  std::shared_ptr<analysis::Ledger> ledger;
  Barrier barrier;
  std::vector<float*> bufs;
  std::vector<int> split_colors = std::vector<int>(static_cast<size_t>(size), 0);
  Mailbox mailbox;

  std::mutex split_mu;
  std::map<int, std::shared_ptr<World>> pending_splits;
  std::vector<std::weak_ptr<World>> children;

  // Injected wire latency (seconds); see Comm::set_injected_comm_latency.
  std::atomic<double> lat_per_byte{0};
  std::atomic<double> lat_fixed{0};

  runtime::Stream& comm_stream(int rank) {
    std::lock_guard<std::mutex> lock(stream_mu);
    if (streams.empty()) streams.resize(static_cast<size_t>(size));
    auto& s = streams[static_cast<size_t>(rank)];
    if (!s) {
      s = std::make_unique<runtime::Stream>("comm.r" + std::to_string(rank));
    }
    return *s;
  }

  void poison(const std::string& reason = "another rank failed") {
    poison_state->set(reason);
    barrier.poison(reason);
    mailbox.poison(reason);
    std::lock_guard<std::mutex> lock(split_mu);
    for (auto& w : children) {
      if (auto c = w.lock()) c->poison(reason);
    }
  }

  // Declared last-but-one so the streams drain (tasks may still touch
  // the barrier / mailbox / ledger above) before the rest of the World
  // is destroyed.
  std::mutex stream_mu;
  std::vector<std::unique_ptr<runtime::Stream>> streams;
  // Declared very last: the monitor thread is joined before anything it
  // watches (ledger, barrier, this World itself) starts dying.
  std::unique_ptr<analysis::Watchdog> watchdog;
};

struct CommHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr err;
  Tensor result;
  // The hierarchy's first-failure record; lets wait() surface the root
  // cause instead of this op's secondary fan-out error.
  std::shared_ptr<const PoisonState> poison;
  // True once the owner acknowledged completion (wait / result /
  // abandon). The handle registry audits this at communicator teardown.
  std::atomic<bool> settled{false};
};

// Leaked-CommHandle detector (ISSUE satellite: the latent leak class).
// One registry is shared — like TrafficStats — by every copy and stream
// alias of a rank handle; pending i* operations register their State
// here. When the last copy of the lineage dies, any State never
// settled via wait()/result()/abandon() is reported: an unwaited
// nonblocking op means nobody can observe its error (a poisoned
// communicator, a bad peer), the classic silently-dropped-isend bug at
// pipeline drain. Debug builds treat this as an assertion on Comm's
// destruction path; MLS_LEAK_FATAL=1 upgrades the report to abort().
class HandleRegistry {
 public:
  HandleRegistry(int rank, bool fatal) : rank_(rank), fatal_(fatal) {}
  HandleRegistry(const HandleRegistry&) = delete;
  HandleRegistry& operator=(const HandleRegistry&) = delete;

  void add(std::shared_ptr<CommHandle::State> state, std::string what) {
    std::lock_guard<std::mutex> lock(mu_);
    // Prune acknowledged entries so the registry stays bounded by the
    // number of genuinely in-flight handles.
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [](const Entry& e) {
                                    return e.state->settled.load(
                                        std::memory_order_relaxed);
                                  }),
                   entries_.end());
    entries_.push_back(Entry{std::move(state), std::move(what)});
  }

  ~HandleRegistry() {
    // No lock: we are the last reference by definition.
    int64_t leaks = 0;
    std::string detail;
    for (const auto& e : entries_) {
      if (e.state->settled.load(std::memory_order_relaxed)) continue;
      ++leaks;
      detail += "  leaked handle: " + e.what + "\n";
    }
    if (leaks == 0) return;
    const std::string report =
        "comm handle leak on rank " + std::to_string(rank_) + ": " +
        std::to_string(leaks) +
        " nonblocking operation(s) destroyed without wait()/result()/"
        "abandon()\n" +
        detail;
    std::fputs(report.c_str(), stderr);
    analysis::note_handle_leaks(leaks);
    if (fatal_) std::abort();
  }

 private:
  struct Entry {
    std::shared_ptr<CommHandle::State> state;
    std::string what;
  };
  std::mutex mu_;
  const int rank_;
  const bool fatal_;
  std::vector<Entry> entries_;
};

namespace {

// Whether a fresh communicator should carry a handle registry: only
// when something can read the verdict (analyzer on, or a debug build
// where the audit doubles as a destructor assertion) — keeping the
// analyzer-off release path at literally zero added work per op.
bool want_leak_check(const analysis::Options& opts) {
#ifndef NDEBUG
  return opts.leak_check;
#else
  return opts.leak_check && opts.enabled();
#endif
}

// RAII ledger recorder around one comm operation. A null ledger makes
// both ends no-ops; begin() may throw the structured mismatch report.
struct OpScope {
  analysis::Ledger* ledger = nullptr;
  int rank = 0;
  int64_t id = -1;

  OpScope(const std::shared_ptr<analysis::Ledger>& l, int rank_in,
          analysis::CommRecord rec)
      : ledger(l.get()), rank(rank_in) {
    if (!ledger) return;
    // Ops running on a comm-stream worker came through the i* API.
    rec.async = runtime::Stream::on_worker_thread();
    id = ledger->begin(rank, std::move(rec));
  }
  ~OpScope() {
    if (ledger && id >= 0) ledger->end(rank, id);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
};

}  // namespace

bool CommHandle::done() const {
  if (!state_) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void CommHandle::wait() {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  state_->settled.store(true, std::memory_order_relaxed);
  if (!state_->err) return;
  // If the hierarchy recorded a root cause and this op's own error is a
  // secondary fan-out ("another rank failed"), surface the root cause —
  // recovery decisions key off the FIRST failure, not the loudest one.
  const std::string first =
      state_->poison ? state_->poison->first_reason() : std::string();
  if (!first.empty()) {
    try {
      std::rethrow_exception(state_->err);
    } catch (const std::exception& e) {
      if (std::string(e.what()).find(first) == std::string::npos) {
        throw Error("nonblocking operation failed; first failure: " + first +
                    " (this op: " + e.what() + ")");
      }
      throw;
    }
  }
  std::rethrow_exception(state_->err);
}

Tensor CommHandle::result() {
  wait();
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->result;
}

void CommHandle::abandon() {
  if (state_) state_->settled.store(true, std::memory_order_relaxed);
}

Comm::Comm(std::shared_ptr<World> world, int rank)
    : world_(std::move(world)), rank_(rank), stats_(std::make_shared<TrafficStats>()) {}

std::vector<Comm> Comm::create_group(int size, std::string name) {
  MLS_CHECK_GE(size, 1);
  const analysis::Options opts = analysis::Options::effective();
  auto world = std::make_shared<World>(size, std::move(name), opts);
  std::vector<Comm> comms;
  comms.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    Comm c(world, r);
    if (size > 1 && want_leak_check(opts)) {
      c.handles_ = std::make_shared<HandleRegistry>(r, opts.leak_fatal);
    }
    comms.push_back(std::move(c));
  }
  return comms;
}

int Comm::size() const { return world_ ? world_->size : 1; }

void Comm::barrier() {
  MLS_CHECK(valid());
  fault::on_comm("barrier");
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kBarrier});
  world_->barrier.arrive_and_wait();
}

namespace {
// Chunk i of a length-n buffer divided into `parties` near-equal parts.
int64_t chunk_ofs(int64_t n, int parties, int i) {
  return n * i / parties;
}
int mod(int a, int m) { return ((a % m) + m) % m; }
}  // namespace

// Ring reduce-scatter over the ranks' registered buffers (in place).
// After completion, rank r's chunk r holds the full sum. Precondition:
// all buffers registered in world->bufs and a barrier has been passed.
// Returns bytes received by this rank.
static int64_t ring_reduce_scatter_inplace(World& w, int rank, int64_t n,
                                           int64_t elem_bytes,
                                           ReduceOp op = ReduceOp::Sum) {
  const int T = w.size;
  int64_t received = 0;
  for (int s = 0; s <= T - 2; ++s) {
    const int c = mod(rank - 2 - s, T);
    const int64_t lo = chunk_ofs(n, T, c);
    const int64_t hi = chunk_ofs(n, T, c + 1);
    float* mine = w.bufs[static_cast<size_t>(rank)];
    const float* left = w.bufs[static_cast<size_t>(mod(rank - 1, T))];
    if (op == ReduceOp::Sum) {
      for (int64_t k = lo; k < hi; ++k) mine[k] += left[k];
    } else {
      for (int64_t k = lo; k < hi; ++k) mine[k] = std::max(mine[k], left[k]);
    }
    received += (hi - lo) * elem_bytes;
    w.barrier.arrive_and_wait();
  }
  return received;
}

// Ring all-gather: precondition is that rank r's chunk r is final (the
// post-reduce-scatter state, or each rank's own shard for a pure
// all-gather). Afterwards every rank holds all chunks.
static int64_t ring_all_gather_inplace(World& w, int rank, int64_t n,
                                       int64_t elem_bytes) {
  const int T = w.size;
  int64_t received = 0;
  for (int s = 0; s <= T - 2; ++s) {
    const int c = mod(rank - 1 - s, T);
    const int64_t lo = chunk_ofs(n, T, c);
    const int64_t hi = chunk_ofs(n, T, c + 1);
    float* mine = w.bufs[static_cast<size_t>(rank)];
    const float* left = w.bufs[static_cast<size_t>(mod(rank - 1, T))];
    std::memcpy(mine + lo, left + lo, sizeof(float) * static_cast<size_t>(hi - lo));
    received += (hi - lo) * elem_bytes;
    w.barrier.arrive_and_wait();
  }
  return received;
}

void Comm::inject_latency(int64_t bytes) const {
  const double per = world_->lat_per_byte.load(std::memory_order_relaxed);
  const double fixed = world_->lat_fixed.load(std::memory_order_relaxed);
  const double sec = per * static_cast<double>(bytes) + fixed;
  if (sec > 0) std::this_thread::sleep_for(std::chrono::duration<double>(sec));
}

void Comm::set_injected_comm_latency(double sec_per_byte, double sec_fixed) {
  MLS_CHECK(valid());
  world_->lat_per_byte.store(sec_per_byte, std::memory_order_relaxed);
  world_->lat_fixed.store(sec_fixed, std::memory_order_relaxed);
}

void Comm::all_reduce(Tensor& t, ReduceOp op) {
  MLS_CHECK(valid());
  fault::on_comm("all_reduce");
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kAllReduce,
                 .reduce_op = static_cast<int>(op),
                 .dtype = static_cast<int>(t.dtype()),
                 .count = t.numel()});
  ++stats_->all_reduce_count;
  if (size() == 1) return;
  const int64_t n = t.numel();
  const int64_t eb = byte_size(t.dtype());
  const int64_t before = stats_->bytes_received;
  world_->bufs[static_cast<size_t>(rank_)] = t.data();
  world_->barrier.arrive_and_wait();
  stats_->bytes_received += ring_reduce_scatter_inplace(*world_, rank_, n, eb, op);
  stats_->bytes_received += ring_all_gather_inplace(*world_, rank_, n, eb);
  world_->barrier.arrive_and_wait();
  inject_latency(stats_->bytes_received - before);
}

Tensor Comm::all_gather(const Tensor& shard, int dim) {
  MLS_CHECK(valid());
  // Record the normalized axis so -1 vs. explicit trailing-dim callers
  // don't produce a spurious cross-rank mismatch.
  dim = shard.shape().normalize_axis(dim);
  fault::on_comm("all_gather");
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kAllGather,
                 .dtype = static_cast<int>(shard.dtype()),
                 .count = shard.numel(),
                 .dim = dim});
  ++stats_->all_gather_count;
  if (size() == 1) return shard.clone();
  const int T = size();
  const int64_t before = stats_->bytes_received;
  const int64_t shard_elems = shard.numel();
  // Stage the result as [T, shard]: chunk i is rank i's shard.
  Tensor stacked = Tensor::empty(Shape{{T * shard_elems}}, shard.dtype());
  std::memcpy(stacked.data() + rank_ * shard_elems, shard.data(),
              sizeof(float) * static_cast<size_t>(shard_elems));
  world_->bufs[static_cast<size_t>(rank_)] = stacked.data();
  world_->barrier.arrive_and_wait();
  stats_->bytes_received += ring_all_gather_inplace(
      *world_, rank_, T * shard_elems, byte_size(shard.dtype()));
  world_->barrier.arrive_and_wait();
  inject_latency(stats_->bytes_received - before);

  if (dim == 0) {
    // Chunks are already contiguous along dim 0.
    return stacked.reshape(shard.shape().with_dim(0, shard.dim(0) * T));
  }
  // Reassemble along an inner dimension.
  std::vector<int64_t> chunk_dims = {T};
  for (auto d : shard.shape().dims()) chunk_dims.push_back(d);
  Tensor chunks = stacked.reshape(Shape(chunk_dims));
  std::vector<Tensor> parts;
  parts.reserve(static_cast<size_t>(T));
  for (int i = 0; i < T; ++i) {
    parts.push_back(ops::slice(chunks, 0, i, 1).reshape(shard.shape()));
  }
  return ops::cat(parts, dim);
}

Tensor Comm::reduce_scatter(const Tensor& full, int dim) {
  MLS_CHECK(valid());
  dim = full.shape().normalize_axis(dim);
  fault::on_comm("reduce_scatter");
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kReduceScatter,
                 .dtype = static_cast<int>(full.dtype()),
                 .count = full.numel(),
                 .dim = dim});
  ++stats_->reduce_scatter_count;
  if (size() == 1) return full.clone();
  const int T = size();
  MLS_CHECK_EQ(full.dim(dim) % T, 0)
      << "reduce_scatter dim " << dim << " of " << full.shape().str();

  // Bring `dim` to the front so each rank's chunk is contiguous.
  Tensor staged;
  std::vector<int> perm, inv_perm;
  if (dim == 0) {
    staged = full.clone();
  } else {
    perm.push_back(dim);
    for (int i = 0; i < full.ndim(); ++i)
      if (i != dim) perm.push_back(i);
    staged = ops::permute(full, perm);
  }
  const int64_t n = staged.numel();
  const int64_t before = stats_->bytes_received;
  world_->bufs[static_cast<size_t>(rank_)] = staged.data();
  world_->barrier.arrive_and_wait();
  stats_->bytes_received +=
      ring_reduce_scatter_inplace(*world_, rank_, n, byte_size(full.dtype()));
  world_->barrier.arrive_and_wait();
  inject_latency(stats_->bytes_received - before);

  const int64_t chunk = n / T;
  Tensor mine = Tensor::empty(staged.shape().with_dim(0, staged.dim(0) / T),
                              full.dtype());
  std::memcpy(mine.data(), staged.data() + rank_ * chunk,
              sizeof(float) * static_cast<size_t>(chunk));
  if (dim == 0) return mine;
  // Undo the permutation.
  std::vector<int> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i)
    inverse[static_cast<size_t>(perm[i])] = static_cast<int>(i);
  return ops::permute(mine, inverse);
}

void Comm::broadcast(Tensor& t, int root) {
  MLS_CHECK(valid());
  fault::on_comm("broadcast");
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kBroadcast,
                 .dtype = static_cast<int>(t.dtype()),
                 .count = t.numel(),
                 .dim = root});
  ++stats_->broadcast_count;
  if (size() == 1) return;
  world_->bufs[static_cast<size_t>(rank_)] = t.data();
  world_->barrier.arrive_and_wait();
  if (rank_ != root) {
    std::memcpy(t.data(), world_->bufs[static_cast<size_t>(root)],
                sizeof(float) * static_cast<size_t>(t.numel()));
    stats_->bytes_received += t.logical_bytes();
  }
  world_->barrier.arrive_and_wait();
}

Comm Comm::split(int color) const {
  MLS_CHECK(valid());
  fault::on_comm("split");
  // Split colors legitimately differ per rank; records_match only
  // checks that every rank is in fact splitting (vs. some other op).
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kSplit, .dim = color});
  world_->split_colors[static_cast<size_t>(rank_)] = color;
  world_->barrier.arrive_and_wait();

  // Compute my sub-group membership.
  std::vector<int> members;
  for (int r = 0; r < world_->size; ++r) {
    if (world_->split_colors[static_cast<size_t>(r)] == color) members.push_back(r);
  }
  int sub_rank = -1;
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i] == rank_) sub_rank = static_cast<int>(i);
  }
  MLS_CHECK_GE(sub_rank, 0);

  // The lowest member of each color creates the sub-world. Children
  // inherit the parent's analyzer options and derive their diagnostic
  // label from its group name.
  if (members[0] == rank_) {
    auto sub = std::make_shared<World>(static_cast<int>(members.size()),
                                       world_->name + "/c" + std::to_string(color),
                                       world_->opts);
    // One first-failure record per hierarchy (see PoisonState).
    sub->poison_state = world_->poison_state;
    std::lock_guard<std::mutex> lock(world_->split_mu);
    world_->pending_splits[color] = sub;
    world_->children.push_back(sub);
  }
  world_->barrier.arrive_and_wait();

  std::shared_ptr<World> sub;
  {
    std::lock_guard<std::mutex> lock(world_->split_mu);
    sub = world_->pending_splits.at(color);
  }
  world_->barrier.arrive_and_wait();
  // Leader cleans up the registry so the next split starts fresh.
  if (members[0] == rank_) {
    std::lock_guard<std::mutex> lock(world_->split_mu);
    world_->pending_splits.erase(color);
  }
  Comm child(sub, sub_rank);
  if (sub->size > 1 && want_leak_check(sub->opts)) {
    child.handles_ = std::make_shared<HandleRegistry>(sub_rank, sub->opts.leak_fatal);
  }
  return child;
}

void Comm::send(int dst, int tag, const Tensor& t) {
  MLS_CHECK(valid());
  fault::on_comm("send");
  // p2p events are flight-recorded (peer / tag / bytes / site) but
  // never cross-rank validated: send/recv pairing is asymmetric.
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kSend,
                 .dtype = static_cast<int>(t.dtype()),
                 .count = t.numel(),
                 .peer = dst,
                 .tag = tag});
  ++stats_->p2p_send_count;
  stats_->p2p_bytes_sent += t.logical_bytes();
  // Clone: the receiver owns its copy (wire semantics).
  world_->mailbox.send(rank_, dst, tag, t.clone());
}

Tensor Comm::recv(int src, int tag) {
  MLS_CHECK(valid());
  fault::on_comm("recv");
  // count is unknown until the message lands; the flight recorder
  // shows a blocked recv as "recv(count=0, ...) [in flight]".
  OpScope scope(world_->ledger, rank_,
                {.kind = analysis::OpKind::kRecv, .peer = src, .tag = tag});
  Tensor t = world_->mailbox.recv(src, rank_, tag);
  ++stats_->p2p_recv_count;
  stats_->p2p_bytes_received += t.logical_bytes();
  inject_latency(t.logical_bytes());
  return t;
}

CommHandle Comm::launch(std::function<Tensor(Comm&)> op, const char* what) {
  MLS_CHECK(valid());
  CommHandle h;
  h.state_ = std::make_shared<CommHandle::State>();
  h.state_->poison = world_->poison_state;
  auto state = h.state_;
  // The task's rank alias must NOT own the World: the World owns the
  // stream that owns the task, and an owning capture would keep the
  // World alive until the task runs — then destroy it from the stream's
  // own worker thread. The alias shares this handle's TrafficStats, so
  // accounting lands exactly where the blocking call would put it.
  Comm alias(std::shared_ptr<World>(world_.get(), [](World*) {}), rank_);
  alias.stats_ = stats_;
  alias.handles_ = handles_;
  // Capture the issuing thread's call-site tag now: when the task runs
  // on the comm-stream worker, the issuer's SiteGuard is long gone.
  const char* site = analysis::SiteGuard::current();
  if (handles_) {
    handles_->add(state, site ? std::string(what) + " at " + site
                              : std::string(what));
  }
  // The task's staging buffers (all-gather/reduce-scatter scratch,
  // recv payloads) belong to the launching rank, not to the comm
  // worker: capture the rank's arena and install it around the op, so
  // allocation and accounting land where the blocking call would put
  // them. Frees of rank-owned buffers from the worker go through the
  // arena's cross-thread free queue.
  std::shared_ptr<memory::PoolAllocator> arena =
      memory::PoolAllocator::current();
  // The comm-stream worker has no fault context of its own; carry the
  // issuing thread's (world rank, step) over so plan matching sees the
  // same identity on both execution paths. Disarmed cost: one load.
  const int f_rank = fault::armed() ? fault::current_rank() : -1;
  const int64_t f_step = fault::armed() ? fault::current_step() : -1;
  // Carry the issuing rank's kernel binding onto the comm worker: any
  // kernels the overlapped op runs (reduce math, staging packs) size
  // their thread count from the same rank, and under MLS_KERNEL_PIN
  // the worker floats over that rank's core slice instead of landing
  // on whatever core the OS picked.
  const kernels::RankBinding kbind = kernels::rank_binding();
  world_->comm_stream(rank_).enqueue(
      [state, alias, site, f_rank, f_step, kbind, arena = std::move(arena),
       op = std::move(op)]() mutable {
        memory::ArenaGuard arena_guard(std::move(arena));
        kernels::BindGuard kernel_bind(kbind);
        std::optional<fault::TrainScope> fscope;
        if (f_rank != -1 || f_step != -1) fscope.emplace(f_rank, f_step);
        std::optional<analysis::SiteGuard> guard;
        if (site) guard.emplace(site);
        Tensor result;
        std::exception_ptr err;
        try {
          result = op(alias);
        } catch (...) {
          err = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->result = std::move(result);
          state->err = err;
          state->done = true;
        }
        state->cv.notify_all();
      });
  return h;
}

CommHandle Comm::iall_reduce(Tensor& t, ReduceOp op) {
  Tensor ref = t;  // shares storage: the in-place update lands in `t`
  return launch(
      [ref, op](Comm& c) mutable {
        c.all_reduce(ref, op);
        return Tensor();
      },
      "iall_reduce");
}

CommHandle Comm::iall_gather(const Tensor& shard, int dim) {
  Tensor ref = shard;
  return launch([ref, dim](Comm& c) { return c.all_gather(ref, dim); },
                "iall_gather");
}

CommHandle Comm::ireduce_scatter(const Tensor& full, int dim) {
  Tensor ref = full;
  return launch([ref, dim](Comm& c) { return c.reduce_scatter(ref, dim); },
                "ireduce_scatter");
}

CommHandle Comm::isend(int dst, int tag, const Tensor& t) {
  MLS_CHECK(valid());
  // Eager clone on the calling thread: the pipeline executor releases
  // the sent tensor's storage right after the call (Appendix B), so the
  // wire copy must be taken now, not when the task runs.
  Tensor copy = t.clone();
  return launch(
      [copy, dst, tag](Comm& c) {
        // Bypasses Comm::send (the clone already happened), so record
        // the kSend event here.
        OpScope scope(c.world_->ledger, c.rank_,
                      {.kind = analysis::OpKind::kSend,
                       .dtype = static_cast<int>(copy.dtype()),
                       .count = copy.numel(),
                       .peer = dst,
                       .tag = tag});
        ++c.stats_->p2p_send_count;
        c.stats_->p2p_bytes_sent += copy.logical_bytes();
        c.world_->mailbox.send(c.rank_, dst, tag, copy);
        return Tensor();
      },
      "isend");
}

CommHandle Comm::irecv(int src, int tag) {
  return launch([src, tag](Comm& c) { return c.recv(src, tag); }, "irecv");
}

void Comm::poison(const std::string& reason) {
  if (world_) world_->poison(reason);
}

std::string Comm::poison_reason() const {
  return world_ ? world_->poison_state->first_reason() : std::string();
}

std::string Comm::group_name() const {
  return world_ ? world_->name : std::string();
}

std::vector<std::vector<analysis::CommRecord>> Comm::ledger_history() const {
  if (!world_ || !world_->ledger) return {};
  return world_->ledger->snapshot();
}

void Comm::drain() {
  if (!world_) return;
  // Each task's error (if any) was already captured into its own
  // CommHandle; here we only need quiescence, so swallow the rethrow.
  try {
    world_->comm_stream(rank_).synchronize();
  } catch (...) {
  }
}

}  // namespace mls::comm
