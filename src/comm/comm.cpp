#include "comm/comm.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "analysis/ledger.h"
#include "analysis/watchdog.h"
#include "comm/barrier.h"
#include "common/check.h"
#include "fault/inject.h"
#include "tensor/ops.h"

namespace mls::comm {

// First-failure record shared by a whole communicator hierarchy: the
// root World creates it and every split() descendant aliases it, so no
// matter which group a failure surfaces in (a watchdog on the tp group,
// a crash fanned out from the world), the FIRST reason recorded is the
// root cause and survives for recovery logs (Comm::poison_reason).
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
  // Null unless the analyzer is on.
  std::shared_ptr<analysis::Ledger> ledger;
  Barrier barrier;
  std::vector<float*> bufs;
  std::vector<int> split_colors = std::vector<int>(static_cast<size_t>(size), 0);
  Mailbox mailbox;

  std::mutex split_mu;
  std::map<int, std::shared_ptr<World>> pending_splits;
  std::vector<std::weak_ptr<World>> children;

  void poison(const std::string& reason = "another rank failed") {
    poison_state->set(reason);
    barrier.poison(reason);
    mailbox.poison(reason);
    std::lock_guard<std::mutex> lock(split_mu);
    for (auto& w : children) {
      if (auto c = w.lock()) c->poison(reason);
    }
  }

  // Declared last: the monitor thread is joined before anything it
  // watches (ledger, barrier, this World itself) starts dying.
  std::unique_ptr<analysis::Watchdog> watchdog;
};

namespace {

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
    id = ledger->begin(rank, std::move(rec));
  }
  ~OpScope() {
    if (ledger && id >= 0) ledger->end(rank, id);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
};

}  // namespace

Comm::Comm(std::shared_ptr<World> world, int rank)
    : world_(std::move(world)), rank_(rank), stats_(std::make_shared<TrafficStats>()) {}

std::vector<Comm> Comm::create_group(int size, std::string name) {
  MLS_CHECK_GE(size, 1);
  const analysis::Options opts = analysis::Options::effective();
  auto world = std::make_shared<World>(size, std::move(name), opts);
  std::vector<Comm> comms;
  comms.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) comms.push_back(Comm(world, r));
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
  world_->bufs[static_cast<size_t>(rank_)] = t.data();
  world_->barrier.arrive_and_wait();
  stats_->bytes_received += ring_reduce_scatter_inplace(*world_, rank_, n, eb, op);
  stats_->bytes_received += ring_all_gather_inplace(*world_, rank_, n, eb);
  world_->barrier.arrive_and_wait();
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
  world_->bufs[static_cast<size_t>(rank_)] = staged.data();
  world_->barrier.arrive_and_wait();
  stats_->bytes_received +=
      ring_reduce_scatter_inplace(*world_, rank_, n, byte_size(full.dtype()));
  world_->barrier.arrive_and_wait();

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
  return Comm(sub, sub_rank);
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
  return t;
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

}  // namespace mls::comm
