// Tests for trace recording, serialization and replay.
#include "src/trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/sim/cmp_system.hpp"
#include "src/sim/driver.hpp"
#include "src/sim/program.hpp"
#include "src/trace/phase.hpp"

namespace capart::trace {
namespace {

std::vector<NextOp> sample_ops() {
  return {
      NextOp{.gap = 3, .addr = 0x1000, .type = AccessType::kRead,
             .prefetchable = false},
      NextOp{.gap = 0, .addr = 0xdeadbeef40, .type = AccessType::kWrite,
             .prefetchable = true},
      NextOp{.gap = 4095, .addr = (Addr{1} << 52) + 64,
             .type = AccessType::kRead, .prefetchable = false},
  };
}

TEST(TraceRecorder, CapturesThePassthroughStream) {
  trace::Phase phase;
  phase.params.working_set_blocks = 64;
  PhasedGenerator inner(PhaseSchedule({phase}), Rng(5), Addr{1} << 40,
                        Addr{1} << 50);
  TraceRecorder recorder(inner);
  std::vector<NextOp> seen;
  for (int i = 0; i < 100; ++i) seen.push_back(recorder.next());
  ASSERT_EQ(recorder.recorded().size(), 100u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(recorder.recorded()[i].addr, seen[i].addr);
  }
}

std::vector<NextOp> sample_resolved_ops() {
  std::vector<NextOp> ops = sample_ops();
  ops[0].resolved = ResolvedLevel::kL1Hit;
  ops[1].resolved = ResolvedLevel::kShared;
  ops[2].resolved = ResolvedLevel::kPrivateL2Hit;
  return ops;
}

TEST(PackedTrace, PackUnpackRoundTripsEveryField) {
  for (const ResolvedLevel level :
       {ResolvedLevel::kUnresolved, ResolvedLevel::kL1Hit,
        ResolvedLevel::kPrivateL2Hit, ResolvedLevel::kShared}) {
    for (const bool write : {false, true}) {
      for (const bool prefetchable : {false, true}) {
        NextOp op;
        op.gap = 0xFEDCBA98;
        op.addr = (Addr{1} << 52) + 0x40;
        op.type = write ? AccessType::kWrite : AccessType::kRead;
        op.prefetchable = prefetchable;
        op.resolved = level;
        const NextOp back = unpack_op(pack_op(op));
        EXPECT_EQ(back.gap, op.gap);
        EXPECT_EQ(back.addr, op.addr);
        EXPECT_EQ(back.type, op.type);
        EXPECT_EQ(back.prefetchable, op.prefetchable);
        EXPECT_EQ(back.resolved, op.resolved);
      }
    }
  }
}

TEST(PackedTrace, FileRoundTripsViaMmapAndVerifiesKey) {
  const std::string path = ::testing::TempDir() + "/capart_v2_test.trc";
  const std::string key = "capart-trace-v2;profile=test;thread=0";
  std::vector<PackedOp> packed;
  for (const NextOp& op : sample_resolved_ops()) packed.push_back(pack_op(op));
  write_packed_trace_file(path, key, packed);

  std::unique_ptr<MmapTraceFile> file = MmapTraceFile::open(path, key);
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->key(), key);
  ASSERT_EQ(file->ops().size(), packed.size());
  const std::vector<NextOp> expect = sample_resolved_ops();
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const NextOp back = unpack_op(file->ops()[i]);
    EXPECT_EQ(back.addr, expect[i].addr);
    EXPECT_EQ(back.gap, expect[i].gap);
    EXPECT_EQ(back.resolved, expect[i].resolved);
  }
  // A mismatched key is a hash collision or stale file — a hard error, not
  // a silent wrong-trace replay.
  EXPECT_THROW(MmapTraceFile::open(path, "some-other-key"), Error);
  // An empty expectation skips verification (inspection tools).
  EXPECT_NE(MmapTraceFile::open(path, ""), nullptr);
  std::remove(path.c_str());
}

// Parallel arms (--jobs) in one process can spool the same key at once;
// each writer needs its own temp file or one rename steals the other's.
// Regression: with a pid-only temp suffix this raced to "cannot rename".
TEST(PackedTrace, ConcurrentWritersToOnePathAllSucceed) {
  const std::string path = ::testing::TempDir() + "/capart_v2_race.trc";
  const std::string key = "capart-trace-v2;profile=race;thread=0";
  std::vector<PackedOp> packed;
  for (const NextOp& op : sample_resolved_ops()) packed.push_back(pack_op(op));
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        try {
          write_packed_trace_file(path, key, packed);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  std::unique_ptr<MmapTraceFile> file = MmapTraceFile::open(path, key);
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->ops().size(), packed.size());
  std::remove(path.c_str());
}

TEST(PackedTrace, MissingFileIsAMissNotAnError) {
  EXPECT_EQ(MmapTraceFile::open(::testing::TempDir() + "/capart_absent.trc",
                                "k"),
            nullptr);
}

TEST(PackedTrace, MalformedFileThrows) {
  const std::string path = ::testing::TempDir() + "/capart_v2_bad.trc";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "this is not a packed trace file, padded to header size.....";
  }
  EXPECT_THROW(MmapTraceFile::open(path, "k"), Error);
  std::remove(path.c_str());
}

TEST(PackedTrace, EmptyTraceRoundTrips) {
  const std::string path = ::testing::TempDir() + "/capart_v2_empty.trc";
  write_packed_trace_file(path, "k", {});
  for (const bool stream : {false, true}) {
    MmapTraceFile::force_stream_io_for_testing(stream);
    std::unique_ptr<MmapTraceFile> file = MmapTraceFile::open(path, "k");
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->streamed(), stream);
    EXPECT_TRUE(file->ops().empty());
  }
  MmapTraceFile::force_stream_io_for_testing(false);
  std::remove(path.c_str());
  // There is nothing to replay in an empty trace.
  EXPECT_DEATH(PackedReplay(std::span<const PackedOp>{}), "empty");
}

// The header's record count is external input: a count larger than the
// file holds must be rejected before any record is touched, including
// counts whose byte size wraps 64 bits (2^60 records x 16 bytes = 0).
// Regression: such a header opened as a 2^60-record trace on the mmap path
// and tried to allocate 2^60 records on the stream path.
TEST(PackedTrace, RecordCountBeyondTheFileThrows) {
  const std::string path = ::testing::TempDir() + "/capart_v2_count.trc";
  std::vector<PackedOp> packed{pack_op(sample_resolved_ops()[0])};
  for (const std::uint64_t count :
       {std::uint64_t{2}, std::uint64_t{1} << 60, ~std::uint64_t{0}}) {
    write_packed_trace_file(path, "k", packed);
    {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(16);  // magic (8) + version (4) + key length (4)
      f.write(reinterpret_cast<const char*>(&count), sizeof(count));
    }
    for (const bool stream : {false, true}) {
      MmapTraceFile::force_stream_io_for_testing(stream);
      EXPECT_THROW(MmapTraceFile::open(path, "k"), Error)
          << "count " << count << (stream ? " (stream)" : " (mmap)");
    }
    MmapTraceFile::force_stream_io_for_testing(false);
  }
  std::remove(path.c_str());
}

/// Opens `path` through the mmap path or the stream-read fallback and
/// returns the capart::Error message, or "" when the open succeeded.
std::string open_error(const std::string& path, bool stream) {
  MmapTraceFile::force_stream_io_for_testing(stream);
  std::string message;
  try {
    (void)MmapTraceFile::open(path, "k");
  } catch (const Error& e) {
    message = e.what();
  }
  MmapTraceFile::force_stream_io_for_testing(false);
  return message;
}

/// Overwrites the bytes at `offset` of an existing file with `value`.
template <typename T>
void patch_file(const std::string& path, std::streamoff offset,
                const T& value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::vector<PackedOp> packed_sample() {
  std::vector<PackedOp> packed;
  for (const NextOp& op : sample_resolved_ops()) packed.push_back(pack_op(op));
  return packed;
}

TEST(PackedTrace, FileShorterThanTheHeaderThrows) {
  const std::string path = ::testing::TempDir() + "/capart_v2_short.trc";
  // Empty, a bare magic, and one byte short of the 24-byte fixed header.
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{8},
                                  std::size_t{23}}) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      const std::string prefix = std::string("CAPTRCV2") +
                                 std::string(16, '\0');
      os.write(prefix.data(), static_cast<std::streamsize>(bytes));
    }
    for (const bool stream : {false, true}) {
      EXPECT_NE(open_error(path, stream).find("too small"), std::string::npos)
          << bytes << " bytes" << (stream ? " (stream)" : " (mmap)");
    }
  }
  std::remove(path.c_str());
}

// The key length is external input too: a length that puts the records
// past the end of the file is a truncated file, not a read past the end.
TEST(PackedTrace, KeyLengthBeyondTheFileThrows) {
  const std::string path = ::testing::TempDir() + "/capart_v2_keylen.trc";
  // The 1-record file is 48 bytes: a 24-byte key puts the records offset
  // exactly at the end, longer ones past it.
  for (const std::uint32_t key_bytes :
       {std::uint32_t{24}, std::uint32_t{1000}, std::uint32_t{0xFFFFFFF0}}) {
    write_packed_trace_file(path, "k", std::vector<PackedOp>{
                                           pack_op(sample_resolved_ops()[0])});
    ASSERT_EQ(std::filesystem::file_size(path), 48u);
    patch_file(path, 12, key_bytes);  // magic (8) + version (4)
    for (const bool stream : {false, true}) {
      EXPECT_NE(open_error(path, stream).find("truncated"), std::string::npos)
          << "key length " << key_bytes << (stream ? " (stream)" : " (mmap)");
    }
  }
  std::remove(path.c_str());
}

TEST(PackedTrace, RecordsCutShortThrow) {
  const std::string path = ::testing::TempDir() + "/capart_v2_cut.trc";
  // Header + key "k" pad to 32 bytes; three 16-byte records follow. Cut
  // mid-record, at a record boundary, and down to the bare header.
  for (const std::uintmax_t keep :
       {std::uintmax_t{75}, std::uintmax_t{64}, std::uintmax_t{32}}) {
    write_packed_trace_file(path, "k", packed_sample());
    ASSERT_EQ(std::filesystem::file_size(path), 80u);
    std::filesystem::resize_file(path, keep);
    for (const bool stream : {false, true}) {
      EXPECT_NE(open_error(path, stream).find("truncated"), std::string::npos)
          << keep << " bytes kept" << (stream ? " (stream)" : " (mmap)");
    }
  }
  std::remove(path.c_str());
}

TEST(PackedTrace, OtherFormatVersionThrows) {
  const std::string path = ::testing::TempDir() + "/capart_v2_version.trc";
  for (const std::uint32_t version : {std::uint32_t{1}, std::uint32_t{3}}) {
    write_packed_trace_file(path, "k", packed_sample());
    patch_file(path, 8, version);  // after the 8-byte magic
    for (const bool stream : {false, true}) {
      EXPECT_NE(open_error(path, stream).find("not a v2 packed trace"),
                std::string::npos)
          << "version " << version << (stream ? " (stream)" : " (mmap)");
    }
  }
  std::remove(path.c_str());
}

TEST(PackedTrace, StreamFallbackReadsEveryFieldTheMappingDoes) {
  // Every flag combination, at the extremes of the gap and address fields.
  std::vector<NextOp> ops;
  for (const ResolvedLevel level :
       {ResolvedLevel::kUnresolved, ResolvedLevel::kL1Hit,
        ResolvedLevel::kPrivateL2Hit, ResolvedLevel::kShared}) {
    for (const bool write : {false, true}) {
      for (const bool prefetchable : {false, true}) {
        ops.push_back(NextOp{
            .gap = write ? 0u : 0xFFFFFFFFu,
            .addr = prefetchable ? ~Addr{0} - 63 : Addr{64} * ops.size(),
            .type = write ? AccessType::kWrite : AccessType::kRead,
            .prefetchable = prefetchable,
            .resolved = level});
      }
    }
  }
  std::vector<PackedOp> packed;
  for (const NextOp& op : ops) packed.push_back(pack_op(op));
  const std::string path = ::testing::TempDir() + "/capart_v2_fields.trc";
  write_packed_trace_file(path, "k", packed);

  for (const bool stream : {false, true}) {
    MmapTraceFile::force_stream_io_for_testing(stream);
    std::unique_ptr<MmapTraceFile> file = MmapTraceFile::open(path, "k");
    MmapTraceFile::force_stream_io_for_testing(false);
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->streamed(), stream);
    ASSERT_EQ(file->ops().size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const NextOp back = unpack_op(file->ops()[i]);
      EXPECT_EQ(back.gap, ops[i].gap) << i;
      EXPECT_EQ(back.addr, ops[i].addr) << i;
      EXPECT_EQ(back.type, ops[i].type) << i;
      EXPECT_EQ(back.prefetchable, ops[i].prefetchable) << i;
      EXPECT_EQ(back.resolved, ops[i].resolved) << i;
    }
  }
  std::remove(path.c_str());
}

TEST(PackedTrace, RewriteReplacesTheFileAndLeavesNoTempSiblings) {
  const std::string dir = ::testing::TempDir() + "/capart_v2_rewrite";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/entry.trc";
  write_packed_trace_file(path, "first", packed_sample());
  write_packed_trace_file(path, "second",
                          std::span<const PackedOp>(packed_sample()).first(1));

  std::unique_ptr<MmapTraceFile> file = MmapTraceFile::open(path, "second");
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->ops().size(), 1u);
  EXPECT_THROW(MmapTraceFile::open(path, "first"), Error);
  // The writes went through temp files renamed into place; none remain.
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"entry.trc"});
  file.reset();
  std::filesystem::remove_all(dir);
}

TEST(PackedTrace, UnwritableDestinationThrows) {
  const std::string dir = ::testing::TempDir() + "/capart_v2_no_such_dir";
  std::filesystem::remove_all(dir);
  EXPECT_THROW(write_packed_trace_file(dir + "/entry.trc", "k",
                                       packed_sample()),
               Error);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(PackedReplay, FillReturnsShortTailUnderAbortThenDies) {
  std::vector<PackedOp> packed;
  for (const NextOp& op : sample_resolved_ops()) packed.push_back(pack_op(op));
  PackedReplay replay(std::span<const PackedOp>(packed),
                      PackedReplay::OnEnd::kAbort);
  NextOp buffer[8];
  // A batched refill near the end comes back short instead of aborting —
  // the contract that lets the driver's ring ask for a full batch.
  EXPECT_EQ(replay.fill(buffer, 2), 2u);
  EXPECT_EQ(replay.fill(buffer, 8), 1u);
  EXPECT_EQ(buffer[0].addr, sample_resolved_ops()[2].addr);
  EXPECT_DEATH(replay.fill(buffer, 1), "exhausted");
}

TEST(PackedReplay, LoopModeWrapsInsideOneFill) {
  std::vector<PackedOp> packed;
  for (const NextOp& op : sample_resolved_ops()) packed.push_back(pack_op(op));
  PackedReplay replay(std::span<const PackedOp>(packed),
                      PackedReplay::OnEnd::kLoop);
  NextOp buffer[7];
  EXPECT_EQ(replay.fill(buffer, 7), 7u);
  EXPECT_EQ(buffer[3].addr, sample_resolved_ops()[0].addr);
  EXPECT_EQ(buffer[6].addr, sample_resolved_ops()[0].addr);
}

TEST(PackedReplay, NextReplaysInOrderAndLoops) {
  const std::vector<PackedOp> packed = packed_sample();
  PackedReplay replay(std::span<const PackedOp>(packed),
                      PackedReplay::OnEnd::kLoop);
  const std::vector<NextOp> expect = sample_resolved_ops();
  for (std::size_t i = 0; i < 2 * expect.size(); ++i) {
    const NextOp op = replay.next();
    EXPECT_EQ(op.addr, expect[i % expect.size()].addr) << i;
    EXPECT_EQ(op.resolved, expect[i % expect.size()].resolved) << i;
    EXPECT_EQ(replay.position(), i % expect.size() + 1) << i;
  }
}

TEST(PackedReplay, NextDiesOnExhaustionUnderAbort) {
  const std::vector<PackedOp> packed = packed_sample();
  PackedReplay replay(std::span<const PackedOp>(packed),
                      PackedReplay::OnEnd::kAbort);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    EXPECT_EQ(replay.next().addr, sample_resolved_ops()[i].addr);
  }
  EXPECT_DEATH(replay.next(), "exhausted");
}

TEST(PackedReplay, RecordedRunReplaysBitExactly) {
  // Record a live two-thread run, pack the captured streams, then drive an
  // identical system from the packed records: cycle-for-cycle identical
  // results.
  auto make_system = [] {
    sim::SystemConfig cfg;
    cfg.num_threads = 2;
    cfg.l1 = {.sets = 4, .ways = 2, .line_bytes = 64};
    cfg.l2 = {.sets = 16, .ways = 8, .line_bytes = 64};
    return cfg;
  };
  auto make_generator = [](ThreadId t) {
    trace::Phase phase;
    phase.params.working_set_blocks = 512;
    phase.params.mem_ratio = 0.3;
    return std::make_unique<PhasedGenerator>(
        PhaseSchedule({phase}), Rng(40 + t), (Addr{t} + 1) << 40,
        Addr{1} << 50);
  };

  // Live run with recorders wrapped around the generators.
  std::vector<std::unique_ptr<PhasedGenerator>> inner;
  inner.push_back(make_generator(0));
  inner.push_back(make_generator(1));
  std::vector<std::unique_ptr<OpSource>> recording;
  recording.push_back(std::make_unique<TraceRecorder>(*inner[0]));
  recording.push_back(std::make_unique<TraceRecorder>(*inner[1]));
  std::vector<TraceRecorder*> recorders = {
      static_cast<TraceRecorder*>(recording[0].get()),
      static_cast<TraceRecorder*>(recording[1].get())};

  sim::CmpSystem live_system(make_system());
  sim::Driver live(live_system, sim::make_uniform_program(2, 3, 10'000),
                   std::move(recording), {});
  const sim::RunOutcome live_out = live.run();

  // Replay run: every op the live run pulled, and not one more.
  std::vector<std::vector<PackedOp>> packed(2);
  std::vector<std::unique_ptr<OpSource>> replaying;
  for (ThreadId t = 0; t < 2; ++t) {
    for (const NextOp& op : recorders[t]->recorded()) {
      packed[t].push_back(pack_op(op));
    }
    replaying.push_back(std::make_unique<PackedReplay>(
        std::span<const PackedOp>(packed[t]), PackedReplay::OnEnd::kAbort));
  }
  sim::CmpSystem replay_system(make_system());
  sim::Driver replay(replay_system, sim::make_uniform_program(2, 3, 10'000),
                     std::move(replaying), {});
  const sim::RunOutcome replay_out = replay.run();

  EXPECT_EQ(replay_out.total_cycles, live_out.total_cycles);
  EXPECT_EQ(replay_out.instructions_retired, live_out.instructions_retired);
  for (ThreadId t = 0; t < 2; ++t) {
    EXPECT_EQ(replay_system.counters().thread(t).exec_cycles,
              live_system.counters().thread(t).exec_cycles);
    EXPECT_EQ(replay_system.counters().thread(t).l2_misses,
              live_system.counters().thread(t).l2_misses);
  }
}

}  // namespace
}  // namespace capart::trace
