// Trace-spool contract tests: spooled replay is bit-identical to the live
// generator+private-hierarchy path, spool keys include exactly what shapes a
// thread's resolved stream, and the in-process registry shares one mapping
// across arms. A cold entry set is resolved once however many callers ask
// at a time, the pooled incremental writer writes exactly the bytes of a
// whole-stream write, and a failed resolve leaves no file behind. A
// run_experiment without a spool directory takes the
// streamed resolve (sim/streamed_resolve.hpp); run_unresolved below is the
// path whose driver simulates the private caches itself.
#include "src/sim/trace_spool.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/sim/experiment.hpp"
#include "src/sim/streamed_resolve.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/phase.hpp"
#include "src/trace/trace_io.hpp"

namespace capart::sim {
namespace {

ExperimentConfig small_config(const std::string& dir) {
  ExperimentConfig c;
  c.profile = "cg";
  c.num_threads = 4;
  c.num_intervals = 8;
  c.interval_instructions = 48'000;
  c.policy = "static-equal";
  c.seed = 11;
  c.trace_spool_dir = dir;
  return c;
}

/// An empty directory of its own per instance, removed with it. Never
/// reused: the in-process registry keeps every spool path it has mapped,
/// so a test repeated in one process (--gtest_repeat) would otherwise
/// find its entries in the registry instead of resolving them.
struct ScratchDir {
  explicit ScratchDir(const std::string& name) {
    static std::atomic<unsigned> serial{0};
    path = ::testing::TempDir() + "/" + name + "." +
           std::to_string(::getpid()) + "." + std::to_string(serial++);
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string path;
};

Instructions per_thread_work(const ExperimentConfig& cfg) {
  return cfg.interval_instructions * cfg.num_intervals / cfg.num_threads;
}

/// Live generators handed in by the caller: the unresolved path, where the
/// driver simulates each thread's private caches itself.
ExperimentResult run_unresolved(const ExperimentConfig& cfg) {
  const trace::BenchmarkProfile profile =
      trace::make_profile(cfg.profile, cfg.num_threads);
  const Rng root(cfg.seed);
  std::vector<std::unique_ptr<trace::OpSource>> generators;
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    generators.push_back(std::make_unique<trace::PhasedGenerator>(
        trace::PhaseSchedule(profile.threads[t].phases), root.fork(t),
        private_region_base(t), shared_region_base()));
  }
  PreparedExperiment prepared(cfg, std::move(generators));
  while (prepared.advance_interval()) {
  }
  return prepared.finalize();
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles);
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired);
  const mem::ThreadCacheCounters ta = a.l2_stats.total();
  const mem::ThreadCacheCounters tb = b.l2_stats.total();
  EXPECT_EQ(ta.accesses, tb.accesses);
  EXPECT_EQ(ta.hits, tb.hits);
  EXPECT_EQ(ta.misses, tb.misses);
  EXPECT_EQ(ta.writebacks, tb.writebacks);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  ASSERT_EQ(a.thread_totals.size(), b.thread_totals.size());
  for (std::size_t t = 0; t < a.thread_totals.size(); ++t) {
    EXPECT_EQ(a.thread_totals[t].instructions, b.thread_totals[t].instructions);
    EXPECT_EQ(a.thread_totals[t].exec_cycles, b.thread_totals[t].exec_cycles);
    EXPECT_EQ(a.thread_totals[t].l1_accesses, b.thread_totals[t].l1_accesses);
    EXPECT_EQ(a.thread_totals[t].l1_misses, b.thread_totals[t].l1_misses);
    EXPECT_EQ(a.thread_totals[t].l2_accesses, b.thread_totals[t].l2_accesses);
    EXPECT_EQ(a.thread_totals[t].l2_misses, b.thread_totals[t].l2_misses);
  }
}

TEST(TraceSpool, SpooledRunIsBitIdenticalToLive) {
  const ScratchDir scratch("capart_spool_ident");
  const std::string& dir = scratch.path;
  ExperimentConfig live = small_config("");
  ExperimentConfig spooled = small_config(dir);
  const ExperimentResult a = run_unresolved(live);
  // First spooled run resolves and writes the files, second replays them
  // from the in-process registry: all three must agree exactly.
  const ExperimentResult b = run_experiment(spooled);
  const ExperimentResult c = run_experiment(spooled);
  expect_identical(a, b);
  expect_identical(a, c);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 4u);  // one resolved stream per thread
}

TEST(TraceSpool, PrivateL2RunsSpoolAndMatchToo) {
  const ScratchDir scratch("capart_spool_pl2");
  const std::string& dir = scratch.path;
  ExperimentConfig live = small_config("");
  live.enable_private_l2 = true;
  ExperimentConfig spooled = live;
  spooled.trace_spool_dir = dir;
  expect_identical(run_experiment(live), run_experiment(spooled));
}

TEST(TraceSpool, KeyCoversStreamIdentityAndNothingElse) {
  const ExperimentConfig base = small_config("/tmp");
  const Instructions per_thread = 1000;
  const std::string key = spool_key(base, per_thread, 0);

  // Arms differing only in shared-cache organization or execution knobs
  // share spool entries — that sharing is the whole point of the spool.
  ExperimentConfig arm = base;
  arm.policy = "model-based";
  arm.l2.index = mem::IndexKind::kHash;
  arm.l2_banks = 4;
  arm.l2_enforce = mem::L2Enforce::kClosWayMask;
  arm.trace_spool_max_bytes = 1 << 20;
  EXPECT_EQ(spool_key(arm, per_thread, 0), key);
  // The spool directory only says where entries live, not what they hold.
  arm.trace_spool_dir = "/elsewhere";
  EXPECT_EQ(spool_key(arm, per_thread, 0), key);

  // Anything shaping the generated stream or its private-hierarchy resolve
  // must change the key.
  ExperimentConfig other = base;
  other.seed = 12;
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  other = base;
  other.profile = "ft";
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  other = base;
  other.l1.ways *= 2;
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  other = base;
  other.enable_private_l2 = true;
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  EXPECT_NE(spool_key(base, per_thread + 1, 0), key);
  EXPECT_NE(spool_key(base, per_thread, 1), key);
}

TEST(TraceSpool, MigrationRunsAreIneligible) {
  const ScratchDir scratch("capart_spool_mig");
  ExperimentConfig cfg = small_config(scratch.path);
  cfg.migrations.push_back({.interval = 2, .a = 0, .b = 1});
  // Migrations rebind threads to foreign L1s mid-run; a resolved trace bakes
  // in the static binding, so such runs must fall back to live simulation.
  EXPECT_TRUE(spool_sources(cfg, 1000).empty());
}

/// Writes a spool-shaped decoy (capart_*.trc) of `bytes` zeros with an mtime
/// `age_rank` steps in the past, so GC order is deterministic.
std::filesystem::path plant_spool_decoy(const std::string& dir,
                                        const std::string& stem,
                                        std::size_t bytes, int age_rank) {
  const std::filesystem::path path =
      std::filesystem::path(dir) / ("capart_" + stem + ".trc");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(bytes, '\0');
  }
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() -
                std::chrono::hours(age_rank));
  return path;
}

TEST(TraceSpool, GcEvictsOldestFirstDownToTheCap) {
  const ScratchDir scratch("capart_spool_gc");
  const std::string& dir = scratch.path;
  const auto oldest = plant_spool_decoy(dir, "a", 1000, 3);
  const auto middle = plant_spool_decoy(dir, "b", 1000, 2);
  const auto newest = plant_spool_decoy(dir, "c", 1000, 1);
  // Non-spool files are never GC candidates, whatever their age.
  const std::filesystem::path bystander =
      std::filesystem::path(dir) / "notes.txt";
  { std::ofstream(bystander) << "keep me"; }

  // Cap admits two spool files: the oldest one goes, exactly.
  EXPECT_EQ(spool_gc(dir, 2000), 1000u);
  EXPECT_FALSE(std::filesystem::exists(oldest));
  EXPECT_TRUE(std::filesystem::exists(middle));
  EXPECT_TRUE(std::filesystem::exists(newest));
  EXPECT_TRUE(std::filesystem::exists(bystander));

  // Already under the cap: no-op. max_bytes == 0 disables entirely.
  EXPECT_EQ(spool_gc(dir, 2000), 0u);
  EXPECT_EQ(spool_gc(dir, 0), 0u);
  EXPECT_TRUE(std::filesystem::exists(middle));

  // Cap below everything: both remaining decoys go.
  EXPECT_EQ(spool_gc(dir, 500), 2000u);
  EXPECT_FALSE(std::filesystem::exists(middle));
  EXPECT_FALSE(std::filesystem::exists(newest));
}

TEST(TraceSpool, GcSkipsEntriesHeldByThisProcess) {
  // A spooled run leaves its files in the in-process registry; a cap that
  // would evict everything must still keep them (deleting a held entry
  // would force a pointless regenerate) while unheld decoys are collected.
  const ScratchDir scratch("capart_spool_gc_held");
  const std::string& dir = scratch.path;
  ExperimentConfig cfg = small_config(dir);
  cfg.seed = 22;
  (void)run_experiment(cfg);
  const auto decoy = plant_spool_decoy(dir, "stale", 4096, 5);

  (void)spool_gc(dir, 1);
  EXPECT_FALSE(std::filesystem::exists(decoy));
  std::size_t spool_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++spool_files;
  }
  EXPECT_EQ(spool_files, 4u);  // the held per-thread streams survive

  // The config knob routes through the same GC after each acquisition:
  // a stale decoy disappears during a capped spooled run, and the run
  // itself stays bit-identical.
  const auto decoy2 = plant_spool_decoy(dir, "stale2", 4096, 5);
  ExperimentConfig capped = cfg;
  capped.trace_spool_max_bytes = 1;
  expect_identical(run_experiment(cfg), run_experiment(capped));
  EXPECT_FALSE(std::filesystem::exists(decoy2));
}

TEST(TraceSpool, StreamReadFallbackIsBitIdenticalToMmap) {
  // Force the no-mmap path: opens go through the stream reader, the file
  // reports streamed(), and a full spooled run still matches live exactly.
  const ScratchDir scratch("capart_spool_stream");
  const std::string& dir = scratch.path;
  ExperimentConfig cfg = small_config(dir);
  cfg.seed = 23;  // fresh identity: earlier tests' mappings stay cached
  ExperimentConfig live = cfg;
  live.trace_spool_dir.clear();

  trace::MmapTraceFile::force_stream_io_for_testing(true);
  const ExperimentResult streamed = run_experiment(cfg);

  const std::string key = spool_key(cfg, per_thread_work(cfg), 0);
  const auto file = trace::MmapTraceFile::open(spool_path(dir, key), key);
  ASSERT_NE(file, nullptr);
  EXPECT_TRUE(file->streamed());
  EXPECT_EQ(file->key(), key);
  trace::MmapTraceFile::force_stream_io_for_testing(false);

  const auto mapped = trace::MmapTraceFile::open(spool_path(dir, key), key);
  ASSERT_NE(mapped, nullptr);
  EXPECT_FALSE(mapped->streamed());
  ASSERT_EQ(file->ops().size(), mapped->ops().size());
  for (std::size_t i = 0; i < file->ops().size(); ++i) {
    EXPECT_EQ(std::memcmp(&file->ops()[i], &mapped->ops()[i],
                          sizeof(trace::PackedOp)),
              0)
        << "record " << i;
  }

  expect_identical(run_experiment(live), streamed);
}

/// Every record of `source`, which replays a spool entry of `records` ops.
std::vector<trace::NextOp> drain_source(trace::OpSource& source,
                                        std::size_t records) {
  std::vector<trace::NextOp> ops(records);
  for (std::size_t done = 0; done < records;) {
    done += source.fill(ops.data() + done,
                        std::min<std::size_t>(256, records - done));
  }
  return ops;
}

TEST(TraceSpool, ConcurrentColdAcquirersResolveEachStreamOnce) {
  // Four arms asking for one cold entry set at once: one of them resolves
  // each stream, the others wait for its files.
  const ScratchDir scratch("capart_spool_concurrent");
  ExperimentConfig cfg = small_config(scratch.path);
  cfg.seed = 24;
  const Instructions per_thread = per_thread_work(cfg);
  const std::uint64_t resolved_before = spool_streams_resolved_for_testing();
  std::vector<std::vector<std::unique_ptr<trace::OpSource>>> sets(4);
  {
    std::vector<std::thread> acquirers;
    for (auto& set : sets) {
      acquirers.emplace_back(
          [&cfg, &set, per_thread] { set = spool_sources(cfg, per_thread); });
    }
    for (std::thread& acquirer : acquirers) acquirer.join();
  }
  EXPECT_EQ(spool_streams_resolved_for_testing() - resolved_before,
            cfg.num_threads);

  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    const std::string key = spool_key(cfg, per_thread, t);
    const auto file =
        trace::MmapTraceFile::open(spool_path(scratch.path, key), key);
    ASSERT_NE(file, nullptr);
    const std::size_t records = file->ops().size();
    ASSERT_EQ(sets[0].size(), cfg.num_threads);
    const std::vector<trace::NextOp> first =
        drain_source(*sets[0][t], records);
    for (std::size_t k = 1; k < sets.size(); ++k) {
      ASSERT_EQ(sets[k].size(), cfg.num_threads);
      const std::vector<trace::NextOp> other =
          drain_source(*sets[k][t], records);
      for (std::size_t i = 0; i < records; ++i) {
        const trace::PackedOp a = trace::pack_op(first[i]);
        const trace::PackedOp b = trace::pack_op(other[i]);
        ASSERT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
            << "set " << k << " thread " << t << " op " << i;
      }
    }
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Spools `cfg` cold, once on the helper pool and once inline only, and
/// checks every file of both against write_packed_trace_file over the
/// whole of a serial ThreadResolver pass.
void expect_spool_files_match_whole_stream_writes(ExperimentConfig cfg,
                                                  const std::string& what) {
  const ScratchDir pooled("capart_spool_pooled");
  const ScratchDir inline_only("capart_spool_inline");
  const ScratchDir reference("capart_spool_reference");
  const Instructions per_thread = per_thread_work(cfg);
  cfg.trace_spool_dir = pooled.path;
  ASSERT_EQ(spool_sources(cfg, per_thread).size(), cfg.num_threads);
  cfg.trace_spool_dir = inline_only.path;
  force_inline_resolve_for_testing(true);
  const std::size_t inline_sources = spool_sources(cfg, per_thread).size();
  force_inline_resolve_for_testing(false);
  ASSERT_EQ(inline_sources, cfg.num_threads);

  const ResolveSpec spec = make_resolve_spec(
      cfg, trace::make_profile(cfg.profile, cfg.num_threads), per_thread);
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    ThreadResolver resolver(spec, t);
    std::vector<trace::PackedOp> records;
    std::vector<trace::NextOp> batch(256);
    while (const std::size_t got = resolver.fill(batch.data(), batch.size())) {
      for (std::size_t i = 0; i < got; ++i) {
        records.push_back(trace::pack_op(batch[i]));
      }
    }
    const std::string key = spool_key(cfg, per_thread, t);
    const std::string expected_path = spool_path(reference.path, key);
    trace::write_packed_trace_file(expected_path, key, records);
    const std::string expected = file_bytes(expected_path);
    ASSERT_GT(expected.size(), records.size() * sizeof(trace::PackedOp));
    EXPECT_EQ(file_bytes(spool_path(pooled.path, key)), expected)
        << what << " pooled, thread " << t;
    EXPECT_EQ(file_bytes(spool_path(inline_only.path, key)), expected)
        << what << " inline, thread " << t;
  }
}

TEST(TraceSpool, IncrementalWriterMatchesWholeStreamWrites) {
  expect_spool_files_match_whole_stream_writes(small_config(""), "cg/4t");

  ExperimentConfig wide = small_config("");
  wide.num_threads = 32;
  wide.interval_instructions = 32 * 6'000;
  expect_spool_files_match_whole_stream_writes(wide, "cg/32t");

  // 960 k instructions per thread: every swim thread crosses a phase
  // switch, with a private L2 behind each L1.
  ExperimentConfig swim = small_config("");
  swim.profile = "swim";
  swim.num_intervals = 16;
  swim.interval_instructions = 240'000;
  swim.enable_private_l2 = true;
  expect_spool_files_match_whole_stream_writes(swim, "swim/pl2");
}

TEST(TraceSpool, HelperFaultDuringAColdAcquisitionLeavesNoFiles) {
  if (streamed_resolve_helpers() == 0) {
    GTEST_SKIP() << "single-CPU affinity: no helper threads to fail";
  }
  const ScratchDir scratch("capart_spool_fault");
  ExperimentConfig cfg = small_config(scratch.path);
  cfg.seed = 25;
  cfg.num_intervals = 40;
  const Instructions per_thread = per_thread_work(cfg);
  fail_helper_chunks_for_testing(true);
  // Every caller of a failed acquisition gets the error: the one that
  // resolved it, and the ones that waited for it (or retried it).
  std::vector<std::string> errors(3);
  {
    std::vector<std::thread> acquirers;
    for (std::string& error : errors) {
      acquirers.emplace_back([&cfg, &error, per_thread] {
        try {
          (void)spool_sources(cfg, per_thread);
        } catch (const Error& e) {
          error = e.what();
        }
      });
    }
    for (std::thread& acquirer : acquirers) acquirer.join();
  }
  fail_helper_chunks_for_testing(false);
  for (const std::string& error : errors) {
    EXPECT_NE(error.find("injected helper fault"), std::string::npos)
        << "'" << error << "'";
  }
  for (const auto& entry : std::filesystem::directory_iterator(scratch.path)) {
    ADD_FAILURE() << "left behind: " << entry.path().filename().string();
  }

  // Nothing is poisoned: the same acquisition now resolves and replays.
  ExperimentConfig live = cfg;
  live.trace_spool_dir.clear();
  expect_identical(run_experiment(live), run_experiment(cfg));
}

}  // namespace
}  // namespace capart::sim
