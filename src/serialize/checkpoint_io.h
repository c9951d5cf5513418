// Checkpoint I/O: save and restore training state to disk.
//
// Layout mirrors Megatron's distributed checkpoints: each world rank
// writes its own shard file (named by the generation store,
// serialize/ckpt_store.h), containing its
// parameter shards (and, optionally, optimizer moments) as named
// tensors. Loading asserts names and shapes positionally, so a
// checkpoint can only be restored into the same parallel configuration
// that wrote it — re-sharding across configurations is out of scope
// (the paper's system behaves the same way).
//
// Durability (DESIGN.md §10): save_tensors is crash-safe — the shard is
// written to `<path>.tmp`, fsync'ed, renamed over the destination, and
// the directory entry fsync'ed, so a crash mid-save can never clobber a
// previously committed file. Every file carries a CRC-32 trailer over
// the full header+payload stream; load_tensors rejects a torn or
// bit-flipped shard, and verify_tensors() checks integrity without
// allocating any tensor storage (the cheap pre-restore probe the
// generation store uses to fall back across checkpoint generations).
//
// File format (little-endian):
//   magic "MLSCKPT2" | u64 item count |
//   per item: u32 name_len | name bytes | u8 dtype | u32 ndim |
//             i64 dims[ndim] | data[numel] (f32, or u8 for a U8 mask)
//   trailer: u32 crc32 over every preceding byte
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace mls::serialize {

using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

void save_tensors(const std::string& path, const NamedTensors& items);
NamedTensors load_tensors(const std::string& path);

// Streams through the file checking structure and the CRC trailer;
// false on any defect (missing, truncated, bit-flipped, wrong magic).
// Never throws and never allocates tensor storage.
bool verify_tensors(const std::string& path) noexcept;

// Durable small-file helpers shared with the generation store
// (ckpt_store.cpp): atomic publish via tmp + rename + directory fsync.
void write_file_atomic(const std::string& path, const std::string& contents);
void fsync_parent_dir(const std::string& path);

}  // namespace mls::serialize
