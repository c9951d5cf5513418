#include "serialize/checkpoint_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"

namespace mls::serialize {

namespace {

constexpr char kMagic[8] = {'M', 'L', 'S', 'C', 'K', 'P', 'T', '2'};

// Shard payloads stream between the tensor's (pooled) storage and the
// file in bounded chunks through this plain staging buffer — the pinned
// host bounce buffer of a real GPU checkpoint path. Two properties the
// allocator relies on: no intermediate std::vector<float> copy of the
// whole shard is ever materialized, and the bytes handed to blocking
// fread/fwrite calls are never pool-owned (a pooled buffer parked on
// file I/O would sit in the arena's high-water mark for the duration).
constexpr size_t kIoChunkBytes = 1 << 20;

class File {
 public:
  File(const std::string& path, const char* mode) : f_(std::fopen(path.c_str(), mode)) {
    MLS_CHECK(f_ != nullptr) << "cannot open " << path;
  }
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  void write(const void* data, size_t bytes) {
    MLS_CHECK_EQ(std::fwrite(data, 1, bytes, f_), bytes) << "short write";
    crc_.update(data, bytes);
  }
  void read(void* data, size_t bytes) {
    MLS_CHECK_EQ(std::fread(data, 1, bytes, f_), bytes) << "short read";
    crc_.update(data, bytes);
  }
  template <typename T>
  void write_pod(const T& v) {
    write(&v, sizeof(T));
  }
  template <typename T>
  T read_pod() {
    T v;
    read(&v, sizeof(T));
    return v;
  }

  // Chunked payload I/O via the staging buffer (lazily created once
  // per File, reused across tensors).
  void write_staged(const uint8_t* src, size_t bytes) {
    ensure_staging();
    while (bytes > 0) {
      const size_t n = std::min(bytes, kIoChunkBytes);
      std::memcpy(staging_.get(), src, n);
      write(staging_.get(), n);
      src += n;
      bytes -= n;
    }
  }
  void read_staged(uint8_t* dst, size_t bytes) {
    ensure_staging();
    while (bytes > 0) {
      const size_t n = std::min(bytes, kIoChunkBytes);
      read(staging_.get(), n);
      std::memcpy(dst, staging_.get(), n);
      dst += n;
      bytes -= n;
    }
  }
  // Reads and discards payload bytes, still feeding the CRC (the
  // verify_tensors path).
  void skip_staged(size_t bytes) {
    ensure_staging();
    while (bytes > 0) {
      const size_t n = std::min(bytes, kIoChunkBytes);
      read(staging_.get(), n);
      bytes -= n;
    }
  }

  // CRC over everything read/written so far.
  uint32_t crc() const { return crc_.value(); }

  // Trailer I/O bypasses the CRC accumulator (the trailer checks the
  // stream, it is not part of it).
  void write_trailer(uint32_t crc) {
    MLS_CHECK_EQ(std::fwrite(&crc, 1, sizeof(crc), f_), sizeof(crc))
        << "short write";
  }
  uint32_t read_trailer() {
    uint32_t crc = 0;
    MLS_CHECK_EQ(std::fread(&crc, 1, sizeof(crc), f_), sizeof(crc))
        << "truncated checkpoint: missing crc trailer";
    return crc;
  }
  bool at_eof() {
    const int c = std::fgetc(f_);
    if (c == EOF) return true;
    std::ungetc(c, f_);
    return false;
  }

  // Flushes stdio buffers and fsyncs the descriptor: after this returns
  // the file's bytes are durable (modulo the directory entry, which
  // fsync_parent_dir covers after the rename).
  void sync() {
    MLS_CHECK_EQ(std::fflush(f_), 0) << "fflush failed";
    MLS_CHECK_EQ(::fsync(::fileno(f_)), 0) << "fsync failed";
  }

 private:
  void ensure_staging() {
    if (!staging_) staging_ = std::make_unique<char[]>(kIoChunkBytes);
  }

  std::FILE* f_;
  Crc32 crc_;
  std::unique_ptr<char[]> staging_;
};

// An item's payload: fp32 storage, or a U8 mask's own bytes.
const uint8_t* payload(const Tensor& t) {
  return t.dtype() == Dtype::U8 ? t.u8()
                                : reinterpret_cast<const uint8_t*>(t.data());
}
uint8_t* payload(Tensor& t) {
  return const_cast<uint8_t*>(payload(std::as_const(t)));
}

// Shared body of save_tensors: writes the full stream + trailer into
// `path` (no atomicity; the caller handles tmp/rename).
void write_stream(const std::string& path, const NamedTensors& items) {
  File f(path, "wb");
  f.write(kMagic, sizeof(kMagic));
  f.write_pod<uint64_t>(items.size());
  for (const auto& [name, t] : items) {
    MLS_CHECK(t.defined()) << "saving released tensor " << name;
    f.write_pod<uint32_t>(static_cast<uint32_t>(name.size()));
    f.write(name.data(), name.size());
    f.write_pod<uint8_t>(static_cast<uint8_t>(t.dtype()));
    f.write_pod<uint32_t>(static_cast<uint32_t>(t.ndim()));
    for (int i = 0; i < t.ndim(); ++i) f.write_pod<int64_t>(t.dim(i));
    f.write_staged(payload(t), static_cast<size_t>(t.storage_bytes()));
  }
  f.write_trailer(f.crc());
  f.sync();
}

// Walks the header of one item, returning its payload byte count.
// Used by both load (which then reads into a tensor) and verify (which
// then skips).
struct ItemHeader {
  std::string name;
  Dtype dtype;
  std::vector<int64_t> dims;
};

ItemHeader read_item_header(File& f) {
  ItemHeader h;
  const uint32_t name_len = f.read_pod<uint32_t>();
  MLS_CHECK_LT(name_len, 4096u) << "corrupt checkpoint";
  h.name.assign(name_len, '\0');
  f.read(h.name.data(), name_len);
  h.dtype = static_cast<Dtype>(f.read_pod<uint8_t>());
  const uint32_t ndim = f.read_pod<uint32_t>();
  MLS_CHECK_LE(ndim, 8u) << "corrupt checkpoint";
  h.dims.resize(ndim);
  for (auto& d : h.dims) d = f.read_pod<int64_t>();
  for (auto d : h.dims) MLS_CHECK_GE(d, 0) << "corrupt checkpoint";
  return h;
}

}  // namespace

void save_tensors(const std::string& path, const NamedTensors& items) {
  // Crash safety: a torn write must never clobber the previous good
  // file at `path`. Write + fsync the full stream under a temporary
  // name, atomically rename it into place, then fsync the directory so
  // the new entry itself is durable.
  const std::string tmp = path + ".tmp";
  write_stream(tmp, items);
  MLS_CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0)
      << "rename " << tmp << " -> " << path << ": " << std::strerror(errno);
  fsync_parent_dir(path);
}

NamedTensors load_tensors(const std::string& path) {
  File f(path, "rb");
  char magic[8];
  f.read(magic, sizeof(magic));
  MLS_CHECK_EQ(std::memcmp(magic, kMagic, sizeof(kMagic)), 0)
      << path << " is not a checkpoint file";
  const uint64_t count = f.read_pod<uint64_t>();
  NamedTensors items;
  items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ItemHeader h = read_item_header(f);
    // The destination tensor is allocated only once its own payload is
    // next in the stream, and filled directly — no whole-shard
    // intermediate copy.
    Tensor t = Tensor::empty(Shape(h.dims), h.dtype);
    f.read_staged(payload(t), static_cast<size_t>(t.storage_bytes()));
    items.emplace_back(std::move(h.name), std::move(t));
  }
  const uint32_t computed = f.crc();
  const uint32_t stored = f.read_trailer();
  MLS_CHECK_EQ(computed, stored)
      << path << " failed its crc32 integrity check (torn or corrupt shard)";
  return items;
}

bool verify_tensors(const std::string& path) noexcept {
  try {
    File f(path, "rb");
    char magic[8];
    f.read(magic, sizeof(magic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
    const uint64_t count = f.read_pod<uint64_t>();
    for (uint64_t i = 0; i < count; ++i) {
      ItemHeader h = read_item_header(f);
      int64_t numel = 1;
      for (auto d : h.dims) numel *= d;
      f.skip_staged(static_cast<size_t>(numel * storage_size(h.dtype)));
    }
    const uint32_t computed = f.crc();
    if (computed != f.read_trailer()) return false;
    // Trailing garbage would also mean the writer did not produce this
    // file as-is.
    return f.at_eof();
  } catch (...) {
    return false;
  }
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    File f(tmp, "wb");
    if (!contents.empty()) f.write(contents.data(), contents.size());
    f.sync();
  }
  MLS_CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0)
      << "rename " << tmp << " -> " << path << ": " << std::strerror(errno);
  fsync_parent_dir(path);
}

void fsync_parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  // Directory fsync is best-effort by design: some filesystems
  // (overlayfs in CI containers) reject it, and the rename itself is
  // already atomic — the fsync only narrows the power-loss window.
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace mls::serialize
