#include "src/trace/trace_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/error.hpp"

namespace capart::trace {
namespace {

constexpr std::uint8_t kFlagWrite = 1u << 0;
constexpr std::uint8_t kFlagPrefetchable = 1u << 1;
constexpr std::uint8_t kResolvedShift = 2;
constexpr std::uint8_t kResolvedMask = 0b11u << kResolvedShift;

constexpr std::array<char, 8> kPackedMagic = {'C', 'A', 'P', 'T',
                                              'R', 'C', 'V', '2'};
constexpr std::uint32_t kPackedVersion = 2;

/// Fixed v2 header prefix (before the variable-length key).
struct PackedHeader {
  std::array<char, 8> magic;
  std::uint32_t version;
  std::uint32_t key_bytes;
  std::uint64_t count;
};
static_assert(sizeof(PackedHeader) == 24);

std::size_t packed_records_offset(std::uint32_t key_bytes) noexcept {
  const std::size_t raw = sizeof(PackedHeader) + key_bytes;
  return (raw + sizeof(PackedOp) - 1) / sizeof(PackedOp) * sizeof(PackedOp);
}

}  // namespace

PackedOp pack_op(const NextOp& op) noexcept {
  CAPART_DCHECK(op.gap <= ~std::uint32_t{0}, "trace: gap exceeds 32 bits");
  PackedOp packed;
  packed.addr = op.addr;
  packed.gap = static_cast<std::uint32_t>(op.gap);
  std::uint8_t flags = 0;
  if (op.type == AccessType::kWrite) flags |= kFlagWrite;
  if (op.prefetchable) flags |= kFlagPrefetchable;
  flags = static_cast<std::uint8_t>(
      flags | (static_cast<std::uint8_t>(op.resolved) << kResolvedShift));
  packed.flags = flags;
  return packed;
}

NextOp unpack_op(const PackedOp& packed) noexcept {
  NextOp op;
  op.gap = packed.gap;
  op.addr = packed.addr;
  op.type = (packed.flags & kFlagWrite) != 0 ? AccessType::kWrite
                                             : AccessType::kRead;
  op.prefetchable = (packed.flags & kFlagPrefetchable) != 0;
  op.resolved = static_cast<ResolvedLevel>(
      (packed.flags & kResolvedMask) >> kResolvedShift);
  return op;
}

PackedTraceWriter::PackedTraceWriter(std::string path, const std::string& key)
    : path_(std::move(path)) {
  // The temp name must be unique per *writer*, not per process: parallel
  // arms (--jobs) in one process can spool the same key concurrently, and a
  // shared temp path would let one writer rename the other's file away.
  static std::atomic<std::uint64_t> writer_serial{0};
  tmp_ = path_ + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(writer_serial.fetch_add(1));
  os_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!os_.is_open()) {
    throw Error("trace: cannot open " + tmp_ + " for writing");
  }
  // The record count stays 0 until finish() patches it in.
  PackedHeader header{};
  header.magic = kPackedMagic;
  header.version = kPackedVersion;
  header.key_bytes = static_cast<std::uint32_t>(key.size());
  os_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  os_.write(key.data(), static_cast<std::streamsize>(key.size()));
  const std::size_t pad =
      packed_records_offset(header.key_bytes) - sizeof(header) - key.size();
  const std::array<char, sizeof(PackedOp)> zeros{};
  os_.write(zeros.data(), static_cast<std::streamsize>(pad));
  if (!os_.good()) {
    // No destructor runs for a throwing constructor: clean up here.
    os_.close();
    std::remove(tmp_.c_str());
    throw Error("trace: write failed for " + tmp_);
  }
}

PackedTraceWriter::~PackedTraceWriter() {
  if (finished_) return;
  os_.close();
  std::remove(tmp_.c_str());
}

void PackedTraceWriter::append(std::span<const PackedOp> ops) {
  os_.write(reinterpret_cast<const char*>(ops.data()),
            static_cast<std::streamsize>(ops.size_bytes()));
  if (!os_.good()) throw Error("trace: write failed for " + tmp_);
  count_ += ops.size();
}

void PackedTraceWriter::finish() {
  os_.seekp(static_cast<std::streamoff>(offsetof(PackedHeader, count)));
  os_.write(reinterpret_cast<const char*>(&count_), sizeof(count_));
  os_.close();
  if (os_.fail()) throw Error("trace: write failed for " + tmp_);
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    throw Error("trace: cannot rename " + tmp_ + " to " + path_);
  }
  finished_ = true;
}

void write_packed_trace_file(const std::string& path, const std::string& key,
                             std::span<const PackedOp> ops) {
  PackedTraceWriter writer(path, key);
  writer.append(ops);
  writer.finish();
}

namespace {

std::atomic<bool> g_force_stream_io{false};

/// Shared header/key validation for both residence paths. `data` views the
/// whole file (mmap) or just its prologue (stream fallback).
PackedHeader validate_packed_header(const std::string& path, const char* data,
                                    std::size_t bytes, std::size_t file_bytes,
                                    const std::string& expect_key,
                                    std::string& key_out) {
  PackedHeader header{};
  CAPART_CHECK(bytes >= sizeof(header), "trace: header prologue too small");
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != kPackedMagic || header.version != kPackedVersion) {
    throw Error("trace: " + path + " is not a v2 packed trace");
  }
  // Compare counts, not byte sizes: a corrupt count times the record size
  // can wrap 64 bits and pass a byte-size check.
  const std::size_t offset = packed_records_offset(header.key_bytes);
  if (offset > file_bytes ||
      header.count > (file_bytes - offset) / sizeof(PackedOp)) {
    throw Error("trace: " + path + " is truncated");
  }
  CAPART_CHECK(bytes >= sizeof(header) + header.key_bytes,
               "trace: header prologue missing the key");
  key_out.assign(data + sizeof(header), header.key_bytes);
  if (!expect_key.empty() && key_out != expect_key) {
    throw Error("trace: " + path + " was written for a different key (" +
                key_out + " vs " + expect_key + ")");
  }
  return header;
}

}  // namespace

void MmapTraceFile::force_stream_io_for_testing(bool force) noexcept {
  g_force_stream_io.store(force, std::memory_order_relaxed);
}

std::unique_ptr<MmapTraceFile> MmapTraceFile::open(
    const std::string& path, const std::string& expect_key) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;  // miss: the spool will generate
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw Error("trace: cannot stat " + path);
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  if (bytes < sizeof(PackedHeader)) {
    ::close(fd);
    throw Error("trace: " + path + " is too small for a packed trace");
  }
  void* map = MAP_FAILED;
  if (!g_force_stream_io.load(std::memory_order_relaxed)) {
    map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  ::close(fd);
  auto file = std::unique_ptr<MmapTraceFile>(new MmapTraceFile);
  if (map != MAP_FAILED) {
    file->map_ = map;
    file->map_bytes_ = bytes;
    const char* data = static_cast<const char*>(map);
    const PackedHeader header = validate_packed_header(
        path, data, bytes, bytes, expect_key, file->key_);
    file->ops_ = std::span<const PackedOp>(
        reinterpret_cast<const PackedOp*>(
            data + packed_records_offset(header.key_bytes)),
        header.count);
    return file;
  }
  // mmap unavailable (no-MMU platform, mapping limit, unsupported
  // filesystem): stream-read the records into an owned buffer instead.
  // Replay semantics are identical; only memory residence differs.
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    throw Error("trace: cannot open " + path + " for reading");
  }
  std::vector<char> prologue(sizeof(PackedHeader));
  is.read(prologue.data(), static_cast<std::streamsize>(prologue.size()));
  if (!is.good()) {
    throw Error("trace: cannot read header of " + path);
  }
  std::uint32_t key_bytes = 0;
  std::memcpy(&key_bytes,
              prologue.data() + offsetof(PackedHeader, key_bytes),
              sizeof(key_bytes));
  if (bytes < sizeof(PackedHeader) + key_bytes) {
    throw Error("trace: " + path + " is truncated");
  }
  prologue.resize(sizeof(PackedHeader) + key_bytes);
  is.read(prologue.data() + sizeof(PackedHeader), key_bytes);
  if (!is.good() && key_bytes > 0) {
    throw Error("trace: cannot read key of " + path);
  }
  const PackedHeader header = validate_packed_header(
      path, prologue.data(), prologue.size(), bytes, expect_key, file->key_);
  file->owned_ops_.resize(header.count);
  is.seekg(static_cast<std::streamoff>(
      packed_records_offset(header.key_bytes)));
  is.read(reinterpret_cast<char*>(file->owned_ops_.data()),
          static_cast<std::streamsize>(header.count * sizeof(PackedOp)));
  if (!is.good() && header.count > 0) {
    throw Error("trace: cannot read records of " + path);
  }
  file->ops_ = std::span<const PackedOp>(file->owned_ops_);
  return file;
}

MmapTraceFile::~MmapTraceFile() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

PackedReplay::PackedReplay(std::span<const PackedOp> ops, OnEnd on_end)
    : ops_(ops), on_end_(on_end) {
  CAPART_CHECK(!ops_.empty(), "trace: cannot replay an empty packed trace");
}

NextOp PackedReplay::next() {
  if (position_ >= ops_.size()) {
    CAPART_CHECK(on_end_ == OnEnd::kLoop, "trace: packed replay exhausted");
    position_ = 0;
  }
  return unpack_op(ops_[position_++]);
}

std::size_t PackedReplay::fill(NextOp* out, std::size_t n) {
  if (position_ >= ops_.size()) {
    CAPART_CHECK(on_end_ == OnEnd::kLoop, "trace: packed replay exhausted");
    position_ = 0;
  }
  const std::size_t available = ops_.size() - position_;
  const std::size_t take = on_end_ == OnEnd::kAbort ? std::min(n, available)
                                                    : n;
  const PackedOp* records = ops_.data() + position_;
  std::size_t i = 0;
  for (; i < take && i < available; ++i) out[i] = unpack_op(records[i]);
  position_ += i;
  for (; i < take; ++i) out[i] = next();  // kLoop wrap-around tail
  return take;
}

}  // namespace capart::trace
