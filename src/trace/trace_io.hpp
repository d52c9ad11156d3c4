// Trace recording and replay.
//
// Any OpSource stream can be captured to a compact binary format and played
// back later — replacing the synthetic generators with recorded (or
// externally produced, e.g. Pin/DynamoRIO-derived) per-thread traces while
// keeping every other part of the simulator identical. Record/replay of the
// same run is bit-exact.
//
// The format (CAPTRCV2, written by PackedTraceWriter and read by
// MmapTraceFile) is also what the trace spool uses. Records are fixed
// 16-byte PackedOp structs laid out so a file can be mmap()ed and cast —
// replay reads straight from the page cache with no decode pass and no
// per-run copy, which is what lets every arm sharing a workload profile
// amortize one generation+resolve pass. Header: 8-byte magic "CAPTRCV2",
// u32 version, u32 key length, u64 record count, the key string (an
// arbitrary caller identity string, verified on open so hash-named spool
// files can never be confused across configurations), zero-padded to a
// 16-byte boundary, then the records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/trace/op_source.hpp"

namespace capart::trace {

/// One record: a NextOp packed into 16 aligned bytes so record arrays can
/// be written and mapped verbatim. Flags: bit 0 = write, bit 1 =
/// prefetchable, bits 2-3 = ResolvedLevel.
struct PackedOp {
  std::uint64_t addr = 0;
  std::uint32_t gap = 0;
  std::uint8_t flags = 0;
  std::uint8_t reserved[3] = {0, 0, 0};
};
static_assert(sizeof(PackedOp) == 16, "PackedOp must stay mmap-castable");

PackedOp pack_op(const NextOp& op) noexcept;
NextOp unpack_op(const PackedOp& packed) noexcept;

/// Writes a packed trace as its records are produced: append() them in
/// order, then finish() patches the record count into the header and
/// renames the file into place. The write goes to a sibling temporary file
/// first, so concurrent producers of the same spool entry can never expose
/// a torn file (both write identical bytes; last rename wins). A writer
/// destroyed before finish() removes its temporary file. Throws
/// capart::Error on I/O failure.
class PackedTraceWriter {
 public:
  PackedTraceWriter(std::string path, const std::string& key);
  ~PackedTraceWriter();
  PackedTraceWriter(const PackedTraceWriter&) = delete;
  PackedTraceWriter& operator=(const PackedTraceWriter&) = delete;

  void append(std::span<const PackedOp> ops);
  void finish();

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream os_;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

/// Writes a whole packed trace at once (a PackedTraceWriter of one append).
void write_packed_trace_file(const std::string& path, const std::string& key,
                             std::span<const PackedOp> ops);

/// A read-only packed trace, mmap()ed when the platform allows it and
/// otherwise stream-read into an owned buffer (same records, same
/// validation — only the residence differs). The backing storage lives as
/// long as the object; replay sources hold a shared_ptr to it.
class MmapTraceFile {
 public:
  /// Opens `path`; returns nullptr when the file does not exist. Throws
  /// capart::Error on a malformed header or when `expect_key` is non-empty
  /// and does not match the stored key (a spool hash collision or a stale
  /// file from an incompatible build — regenerating is the safe answer, so
  /// callers treat it like a miss after removing the file). When mmap()
  /// itself fails (no-MMU platforms, mapping limits, filesystems without
  /// mmap support), the file is stream-read instead of erroring.
  static std::unique_ptr<MmapTraceFile> open(const std::string& path,
                                             const std::string& expect_key);

  ~MmapTraceFile();
  MmapTraceFile(const MmapTraceFile&) = delete;
  MmapTraceFile& operator=(const MmapTraceFile&) = delete;

  std::span<const PackedOp> ops() const noexcept { return ops_; }
  const std::string& key() const noexcept { return key_; }
  /// True when this file came through the stream-read fallback.
  bool streamed() const noexcept { return map_ == nullptr; }

  /// Test hook: pretend mmap() is unavailable so the stream-read fallback
  /// can be exercised on platforms where the real call never fails.
  static void force_stream_io_for_testing(bool force) noexcept;

 private:
  MmapTraceFile() = default;

  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  /// Fallback storage when mmap() was unavailable (see streamed()).
  std::vector<PackedOp> owned_ops_;
  std::span<const PackedOp> ops_;
  std::string key_;
};

/// Replays a packed record span (zero-copy: unpacks records on the fly in
/// fill()). Does not own the records; the owner (an MmapTraceFile or a
/// vector) must outlive it — the trace spool hands out shared ownership.
class PackedReplay final : public OpSource {
 public:
  enum class OnEnd : std::uint8_t { kLoop, kAbort };

  explicit PackedReplay(std::span<const PackedOp> ops,
                        OnEnd on_end = OnEnd::kAbort);

  NextOp next() override;

  /// Batched refill: unpacks up to `n` records. Under OnEnd::kAbort a
  /// partial tail batch is returned short instead of aborting — the abort
  /// only fires on a pull past the genuine end.
  std::size_t fill(NextOp* out, std::size_t n) override;

  std::size_t size() const noexcept { return ops_.size(); }
  std::size_t position() const noexcept { return position_; }

 private:
  std::span<const PackedOp> ops_;
  std::size_t position_ = 0;
  OnEnd on_end_;
};

/// Pass-through OpSource that captures everything it forwards.
class TraceRecorder final : public OpSource {
 public:
  /// Wraps `inner` (not owned; must outlive the recorder).
  explicit TraceRecorder(OpSource& inner) : inner_(inner) {}

  NextOp next() override {
    const NextOp op = inner_.next();
    recorded_.push_back(op);
    return op;
  }

  std::size_t fill(NextOp* out, std::size_t n) override {
    const std::size_t got = inner_.fill(out, n);
    recorded_.insert(recorded_.end(), out, out + got);
    return got;
  }

  const std::vector<NextOp>& recorded() const noexcept { return recorded_; }
  std::vector<NextOp> take() noexcept { return std::move(recorded_); }

 private:
  OpSource& inner_;
  std::vector<NextOp> recorded_;
};

}  // namespace capart::trace
