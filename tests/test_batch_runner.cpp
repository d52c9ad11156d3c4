// BatchRunner contract tests. The load-bearing one is determinism: a batch
// must produce bit-identical results for any jobs count, because benches
// default to running arms concurrently and the figures they regenerate must
// not depend on the machine's core count.
#include "src/sim/batch.hpp"

#include <gtest/gtest.h>

#include "tests/expect_config_error.hpp"

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "src/trace/benchmarks.hpp"

namespace capart::sim {
namespace {

ExperimentConfig small(const std::string& profile, std::uint64_t seed) {
  ExperimentConfig c;
  c.profile = profile;
  c.num_intervals = 8;
  c.interval_instructions = 60'000;
  c.seed = seed;
  return c;
}

/// A spec mixing policies and baselines, the shape every figure bench runs.
ExperimentSpec figure_shaped_spec(std::uint64_t seed) {
  ExperimentSpec spec;
  spec.name = "test";
  for (const std::string& profile : {std::string("cg"), std::string("mgrid"),
                                     std::string("swim")}) {
    ExperimentConfig model = small(profile, seed);
    spec.add(profile + "/model", model);

    ExperimentConfig shared = small(profile, seed);
    shared.l2_mode = mem::L2Mode::kSharedUnpartitioned;
    shared.policy = "none";
    spec.add(profile + "/shared", shared);
  }
  return spec;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles);
  EXPECT_EQ(a.outcome.intervals_completed, b.outcome.intervals_completed);
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired);

  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    const IntervalRecord& ra = a.intervals[i];
    const IntervalRecord& rb = b.intervals[i];
    EXPECT_EQ(ra.index, rb.index);
    ASSERT_EQ(ra.threads.size(), rb.threads.size());
    for (std::size_t t = 0; t < ra.threads.size(); ++t) {
      EXPECT_EQ(ra.threads[t].instructions, rb.threads[t].instructions);
      EXPECT_EQ(ra.threads[t].exec_cycles, rb.threads[t].exec_cycles);
      EXPECT_EQ(ra.threads[t].stall_cycles, rb.threads[t].stall_cycles);
      EXPECT_EQ(ra.threads[t].l1_misses, rb.threads[t].l1_misses);
      EXPECT_EQ(ra.threads[t].l2_accesses, rb.threads[t].l2_accesses);
      EXPECT_EQ(ra.threads[t].l2_hits, rb.threads[t].l2_hits);
      EXPECT_EQ(ra.threads[t].l2_misses, rb.threads[t].l2_misses);
      EXPECT_EQ(ra.threads[t].ways, rb.threads[t].ways);
    }
  }

  ASSERT_EQ(a.l2_stats.num_threads(), b.l2_stats.num_threads());
  for (ThreadId t = 0; t < a.l2_stats.num_threads(); ++t) {
    const auto& ca = a.l2_stats.thread(t);
    const auto& cb = b.l2_stats.thread(t);
    EXPECT_EQ(ca.accesses, cb.accesses);
    EXPECT_EQ(ca.hits, cb.hits);
    EXPECT_EQ(ca.misses, cb.misses);
    EXPECT_EQ(ca.inter_thread_hits, cb.inter_thread_hits);
    EXPECT_EQ(ca.inter_thread_evictions_caused,
              cb.inter_thread_evictions_caused);
    EXPECT_EQ(ca.inter_thread_evictions_suffered,
              cb.inter_thread_evictions_suffered);
    EXPECT_EQ(ca.intra_thread_evictions, cb.intra_thread_evictions);
    EXPECT_EQ(ca.writebacks, cb.writebacks);
  }

  ASSERT_EQ(a.thread_totals.size(), b.thread_totals.size());
  for (std::size_t t = 0; t < a.thread_totals.size(); ++t) {
    EXPECT_EQ(a.thread_totals[t].instructions, b.thread_totals[t].instructions);
    EXPECT_EQ(a.thread_totals[t].exec_cycles, b.thread_totals[t].exec_cycles);
    EXPECT_EQ(a.thread_totals[t].stall_cycles, b.thread_totals[t].stall_cycles);
    EXPECT_EQ(a.thread_totals[t].l2_misses, b.thread_totals[t].l2_misses);
  }
}

TEST(BatchRunner, ParallelResultsAreBitIdenticalToSerial) {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{1234}}) {
    const ExperimentSpec spec = figure_shaped_spec(seed);
    const BatchResult serial = BatchRunner(1).run(spec);
    const BatchResult parallel = BatchRunner(8).run(spec);

    ASSERT_EQ(serial.arms.size(), spec.arms.size());
    ASSERT_EQ(parallel.arms.size(), spec.arms.size());
    for (std::size_t i = 0; i < spec.arms.size(); ++i) {
      EXPECT_EQ(serial.arms[i].name, spec.arms[i].name);
      EXPECT_EQ(parallel.arms[i].name, spec.arms[i].name);
      expect_identical(serial.arms[i].result, parallel.arms[i].result);
    }
  }
}

// Arms sharing a workload profile share one spool entry per thread: run
// concurrently, they map (and on a miss race to write) the same files.
// Every arm must still match the serial live batch, and the directory ends
// up holding only the finished entries, no writer's temp file.
TEST(BatchRunner, SpooledParallelBatchMatchesSerialLiveBatch) {
  // The process keeps every spool entry it mapped, keyed by path, so a
  // repeat of this test in the same process gets a directory of its own.
  static int invocation = 0;
  const std::string dir = ::testing::TempDir() + "/capart_batch_spool_" +
                          std::to_string(invocation++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ExperimentSpec live = figure_shaped_spec(99);
  for (const std::string& profile : {std::string("cg"), std::string("mgrid"),
                                     std::string("swim")}) {
    ExperimentConfig ucp = small(profile, 99);
    ucp.policy = "ucp";
    live.add(profile + "/ucp", ucp);
  }
  ExperimentSpec spooled;
  spooled.name = live.name;
  for (const ExperimentArm& arm : live.arms) {
    ExperimentConfig cfg = arm.config;
    cfg.trace_spool_dir = dir;
    spooled.add(arm.name, cfg);
  }

  const BatchResult serial = BatchRunner(1).run(live);
  const BatchResult parallel = BatchRunner(3).run(spooled);
  ASSERT_TRUE(serial.all_ok());
  ASSERT_TRUE(parallel.all_ok());
  ASSERT_EQ(parallel.arms.size(), serial.arms.size());
  for (std::size_t i = 0; i < serial.arms.size(); ++i) {
    EXPECT_EQ(parallel.arms[i].name, serial.arms[i].name);
    expect_identical(serial.arms[i].result, parallel.arms[i].result);
  }

  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.rfind("capart_", 0), 0u) << name;
    EXPECT_EQ(entry.path().extension(), ".trc") << name;
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    ++entries;
  }
  // Three profiles x one resolved stream per thread.
  EXPECT_EQ(entries, 3u * live.arms.front().config.num_threads);
  std::filesystem::remove_all(dir);
}

TEST(BatchRunner, ResultsComeBackInSpecOrder) {
  const ExperimentSpec spec = figure_shaped_spec(42);
  const BatchResult batch = BatchRunner(4).run(spec);
  ASSERT_EQ(batch.arms.size(), 6u);
  EXPECT_EQ(batch.arms.front().name, "cg/model");
  EXPECT_EQ(batch.arms.back().name, "swim/shared");
  // at() addresses arms by name; the reference matches the positional slot.
  EXPECT_EQ(&batch.at("mgrid/shared"), &batch.arms[3].result);
}

TEST(BatchRunner, ReportsPerArmAndBatchWallTime) {
  const ExperimentSpec spec = figure_shaped_spec(42);
  const BatchResult batch = BatchRunner(2).run(spec);
  EXPECT_GT(batch.wall_seconds, 0.0);
  double sum = 0.0;
  for (const ArmOutcome& arm : batch.arms) {
    EXPECT_GT(arm.wall_seconds, 0.0);
    sum += arm.wall_seconds;
  }
  EXPECT_DOUBLE_EQ(batch.serial_seconds(), sum);
  EXPECT_GT(batch.speedup(), 0.0);
}

TEST(BatchRunner, EmptySpecRunsToEmptyResult) {
  ExperimentSpec spec;
  spec.name = "empty";
  const BatchResult batch = BatchRunner(4).run(spec);
  EXPECT_TRUE(batch.arms.empty());
  EXPECT_EQ(batch.serial_seconds(), 0.0);
  EXPECT_EQ(batch.speedup(), 1.0);
}

TEST(BatchRunner, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(BatchRunner(0).jobs(), 1u);
  EXPECT_EQ(BatchRunner(3).jobs(), 3u);
  EXPECT_GE(default_jobs(), 1u);
}

TEST(BatchRunner, SpecRejectsDuplicateArmNames) {
  ExperimentSpec spec;
  spec.add("a", ExperimentConfig{});
  EXPECT_CONFIG_ERROR(spec.add("a", ExperimentConfig{}), "duplicate arm name");
}

TEST(BatchRunner, UnknownArmLookupAborts) {
  const BatchResult batch = BatchRunner(1).run(figure_shaped_spec(42));
  EXPECT_DEATH(batch.at("nope/never"), "unknown arm name");
}

TEST(BatchRunner, GenericMapPreservesInputOrder) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 37; ++i) {
    tasks.emplace_back([i] { return i * i; });
  }
  std::vector<double> wall;
  const std::vector<int> results = BatchRunner(5).map(std::move(tasks), &wall);
  ASSERT_EQ(results.size(), 37u);
  ASSERT_EQ(wall.size(), 37u);
  for (std::size_t i = 0; i < 37; ++i) {
    const int expected = static_cast<int>(i * i);
    EXPECT_EQ(results[i], expected);
  }
}

TEST(BatchRunner, MapRunsEveryTaskExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&calls] { return ++calls; });
  }
  BatchRunner(8).map(std::move(tasks));
  EXPECT_EQ(calls.load(), 64);
}

TEST(BatchRunner, TaskExceptionPropagatesAfterDrain) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.emplace_back([i]() -> int {
      if (i == 4) throw std::runtime_error("arm failure");
      return i;
    });
  }
  EXPECT_THROW(BatchRunner(4).map(std::move(tasks)), std::runtime_error);
}

}  // namespace
}  // namespace capart::sim
