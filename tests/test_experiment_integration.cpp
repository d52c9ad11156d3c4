// End-to-end integration tests over the full stack: profile -> generators ->
// CMP -> driver -> runtime -> results. Configurations are scaled down so the
// suite stays fast; the bench binaries run the full-size experiments.
#include "src/sim/experiment.hpp"

#include <gtest/gtest.h>

#include "tests/expect_config_error.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/benchmarks.hpp"

namespace capart::sim {
namespace {

ExperimentConfig small(const std::string& profile) {
  ExperimentConfig c;
  c.profile = profile;
  c.num_intervals = 12;
  c.interval_instructions = 60'000;
  c.seed = 7;
  return c;
}

TEST(Experiment, DeterministicForSameSeed) {
  const ExperimentResult a = run_experiment(small("cg"));
  const ExperimentResult b = run_experiment(small("cg"));
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles);
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].threads[0].exec_cycles,
              b.intervals[i].threads[0].exec_cycles);
  }
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentConfig c = small("cg");
  const Cycles first = run_experiment(c).outcome.total_cycles;
  c.seed = 8;
  EXPECT_NE(run_experiment(c).outcome.total_cycles, first);
}

TEST(Experiment, RetiresTheConfiguredWork) {
  const ExperimentResult r = run_experiment(small("mg"));
  EXPECT_EQ(r.outcome.instructions_retired, 12u * 60'000u);
  EXPECT_EQ(r.intervals.size(), 12u);
}

TEST(Experiment, MonitorOnlyRunRecordsButNeverRepartitions) {
  ExperimentConfig c = small("cg");
  c.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  c.policy = "none";
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.intervals.size(), 12u);
  for (const auto& rec : r.intervals) {
    for (const auto& t : rec.threads) EXPECT_EQ(t.ways, 16u);
  }
  EXPECT_FALSE(r.model_snapshot.has_value());
}

TEST(Experiment, ModelBasedRunExportsModelSnapshot) {
  const ExperimentResult r = run_experiment(small("cg"));
  ASSERT_TRUE(r.model_snapshot.has_value());
  const ModelSnapshot& snap = *r.model_snapshot;
  ASSERT_EQ(snap.predicted.size(), 4u);
  EXPECT_EQ(snap.predicted[0].size(), 64u);
  EXPECT_EQ(snap.final_allocation.size(), 4u);
  std::uint32_t sum = 0;
  for (std::uint32_t w : snap.final_allocation) sum += w;
  EXPECT_EQ(sum, 64u);
  // The critical cg thread has learned curve points.
  EXPECT_GE(snap.observed[0].size(), 2u);
}

TEST(Experiment, ModelBasedBeatsStaticEqualOnHeterogeneousApp) {
  ExperimentConfig model_cfg = small("cg");
  model_cfg.num_intervals = 20;
  ExperimentConfig equal_cfg = model_cfg;
  equal_cfg.policy = "static-equal";
  const ExperimentResult model = run_experiment(model_cfg);
  const ExperimentResult equal = run_experiment(equal_cfg);
  EXPECT_GT(improvement(model, equal), 0.03);
}

TEST(Experiment, ModelBasedBeatsSharedOnPollutedApp) {
  // The headline Fig 20 behaviour at test scale: mgrid (heavy critical
  // thread + streaming polluter) gains from partitioning over shared LRU.
  ExperimentConfig model_cfg = small("mgrid");
  model_cfg.num_intervals = 20;
  ExperimentConfig shared_cfg = model_cfg;
  shared_cfg.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  shared_cfg.policy = "none";
  const ExperimentResult model = run_experiment(model_cfg);
  const ExperimentResult shared = run_experiment(shared_cfg);
  EXPECT_GT(improvement(model, shared), 0.03);
}

TEST(Experiment, PrivateModeRuns) {
  ExperimentConfig c = small("lu");
  c.l2_mode = mem::L2Mode::kPrivatePerThread;
  c.policy = "none";
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.outcome.total_cycles, 0u);
  // Private caches never show inter-thread interaction.
  EXPECT_EQ(r.l2_stats.total().inter_thread_hits, 0u);
}

TEST(Experiment, SharedModeShowsInterThreadInteraction) {
  ExperimentConfig c = small("ft");  // high-sharing profile
  c.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  c.policy = "none";
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.l2_stats.inter_thread_fraction(), 0.02);
  EXPECT_GT(r.l2_stats.constructive_fraction(), 0.3);
}

TEST(Experiment, EightThreadConfigurationRuns) {
  ExperimentConfig c = small("mg");
  c.num_threads = 8;
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.thread_totals.size(), 8u);
  ASSERT_TRUE(r.model_snapshot.has_value());
  EXPECT_EQ(r.model_snapshot->final_allocation.size(), 8u);
}

TEST(Experiment, MigrationEventsAreHonoured) {
  ExperimentConfig c = small("cg");
  c.migrations.push_back({.interval = 2, .a = 0, .b = 1});
  // Must complete; adaptation is exercised by the abl_migration bench.
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.intervals.size(), 12u);
}

TEST(Experiment, PerThreadPerformanceVariabilityExists) {
  // Fig 3's premise: under a shared cache, thread execution speeds differ
  // substantially within one application.
  ExperimentConfig c = small("mgrid");
  c.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  c.policy = "none";
  const ExperimentResult r = run_experiment(c);
  double min_cpi = 1e9, max_cpi = 0;
  for (const auto& t : r.thread_totals) {
    min_cpi = std::min(min_cpi, t.cpi());
    max_cpi = std::max(max_cpi, t.cpi());
  }
  EXPECT_GT(max_cpi, 1.5 * min_cpi);
}

TEST(Experiment, CpiCorrelatesWithL2Misses) {
  // Fig 5's premise, structurally guaranteed by the timing model but
  // verified end-to-end here.
  ExperimentConfig c = small("cg");
  c.num_intervals = 16;
  c.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  c.policy = "none";
  const ExperimentResult r = run_experiment(c);
  // Per-interval instruction counts vary with barrier stalls in our
  // aggregate-interval scheme, so the raw miss count aliases progress into
  // the series; normalize to misses per instruction.
  std::vector<double> cpis, misses;
  for (const auto& rec : r.intervals) {
    if (rec.threads[0].instructions == 0) continue;
    cpis.push_back(rec.threads[0].cpi());
    misses.push_back(static_cast<double>(rec.threads[0].l2_misses) /
                     static_cast<double>(rec.threads[0].instructions));
  }
  // Pearson over the interval series (what fig05 reports).
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < cpis.size(); ++i) {
    mx += misses[i];
    my += cpis[i];
  }
  mx /= static_cast<double>(cpis.size());
  my /= static_cast<double>(cpis.size());
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < cpis.size(); ++i) {
    sxy += (misses[i] - mx) * (cpis[i] - my);
    sxx += (misses[i] - mx) * (misses[i] - mx);
    syy += (cpis[i] - my) * (cpis[i] - my);
  }
  EXPECT_GT(sxy / std::sqrt(sxx * syy), 0.8);
}

TEST(Experiment, ImprovementIsAntisymmetricInSign) {
  const ExperimentResult fast = run_experiment(small("cg"));
  ExperimentConfig slow_cfg = small("cg");
  slow_cfg.policy = "static-equal";
  const ExperimentResult slow = run_experiment(slow_cfg);
  const double a = improvement(fast, slow);
  const double b = improvement(slow, fast);
  EXPECT_GT(a, 0.0);
  EXPECT_LT(b, 0.0);
}

TEST(Experiment, RejectsDegenerateConfigs) {
  ExperimentConfig c = small("cg");
  c.interval_instructions = 10;
  EXPECT_CONFIG_ERROR(run_experiment(c), "interval too short");
  ExperimentConfig c2 = small("cg");
  c2.num_intervals = 0;
  EXPECT_CONFIG_ERROR(run_experiment(c2), ">= 1 interval");
}

// The total instruction budget is intervals x interval length; a product
// past 64 bits once wrapped and ran a few instructions (or none) as if
// nothing were wrong.
TEST(Experiment, InstructionBudgetsPastSixtyFourBitsAreRejected) {
  ExperimentConfig c = small("cg");
  c.num_intervals = 2;  // --intervals=2 --interval-instr=2^63
  c.interval_instructions = Instructions{1} << 63;
  EXPECT_CONFIG_ERROR(run_experiment(c), "overflow a 64-bit count");
  c.num_intervals = 4;  // wrapped to 4 instructions
  c.interval_instructions = (Instructions{1} << 62) + 1;
  EXPECT_CONFIG_ERROR(run_experiment(c), "overflow a 64-bit count");
  // The largest budget that fits passes validation.
  c.num_intervals = 3;
  c.interval_instructions = ~Instructions{0} / 3;
  EXPECT_NO_THROW(c.validate());
}

// Each configuration below is a capart_sim command line whose caches cannot
// be built; validation must reject it recoverably, before construction.

TEST(Experiment, ColoringNeedsL2WaysToDivideL2Sets) {
  ExperimentConfig c = small("cg");
  c.l2_mode = mem::L2Mode::kSetPartitionedShared;
  c.l2.sets = 32;  // --l2-mode=coloring --l2-sets=32: 64 colors, 32 sets
  EXPECT_CONFIG_ERROR(run_experiment(c), "--l2-ways to divide --l2-sets");
  c.l2.sets = 256;
  c.l2.ways = 48;  // --l2-mode=coloring --l2-ways=48
  EXPECT_CONFIG_ERROR(run_experiment(c), "--l2-ways to divide --l2-sets");
  c.l2.ways = 64;
  c.l2.line_bytes = 8192;  // lines larger than the coloring page
  EXPECT_CONFIG_ERROR(run_experiment(c), "4096-byte pages");
}

TEST(Experiment, UmonPolicyNeedsASampledL2Set) {
  ExperimentConfig c = small("cg");
  c.policy = "umon";  // --policy=umon --l2-sets=4 --l2-ways=16
  c.l2.sets = 4;
  c.l2.ways = 16;
  EXPECT_CONFIG_ERROR(run_experiment(c), "--l2-sets=4 leaves none");
}

TEST(Experiment, L2WaysBeyondSixteenBitsAreRejected) {
  ExperimentConfig c = small("cg");
  c.l2.sets = 1;  // --l2-sets=1 --l2-ways=65536
  c.l2.ways = 65536;
  EXPECT_CONFIG_ERROR(run_experiment(c), "at most 65535 ways");
}

// A spool cap with no spool directory once passed validation and was
// silently ignored: the run took the streamed path and nothing was capped.
TEST(Experiment, SpoolCapNeedsASpoolDirectory) {
  ExperimentConfig c = small("cg");
  c.trace_spool_max_bytes = 1 << 20;  // --trace-dir-max-bytes=1048576 alone
  EXPECT_CONFIG_ERROR(run_experiment(c),
                      "--trace-dir-max-bytes caps a spool directory and needs "
                      "--trace-dir");
  c.trace_spool_dir = ::testing::TempDir();
  EXPECT_NO_THROW(c.validate());
}

TEST(Experiment, RegionBasesAreDisjoint) {
  EXPECT_NE(private_region_base(0), private_region_base(1));
  EXPECT_GT(shared_region_base(), private_region_base(63));
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles) << what;
  EXPECT_EQ(a.outcome.intervals_completed, b.outcome.intervals_completed)
      << what;
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired)
      << what;
  ASSERT_EQ(a.intervals.size(), b.intervals.size()) << what;
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    ASSERT_EQ(a.intervals[i].threads.size(), b.intervals[i].threads.size());
    for (std::size_t t = 0; t < a.intervals[i].threads.size(); ++t) {
      EXPECT_EQ(a.intervals[i].threads[t].exec_cycles,
                b.intervals[i].threads[t].exec_cycles)
          << what << " interval " << i << " thread " << t;
      EXPECT_EQ(a.intervals[i].threads[t].l2_misses,
                b.intervals[i].threads[t].l2_misses)
          << what << " interval " << i << " thread " << t;
      EXPECT_EQ(a.intervals[i].threads[t].ways,
                b.intervals[i].threads[t].ways)
          << what << " interval " << i << " thread " << t;
    }
  }
}

TEST(Experiment, PreparedRunStepsOneIntervalPerAdvance) {
  const ExperimentConfig cfg = small("cg");
  PreparedExperiment prepared(cfg);
  std::uint64_t advances = 0;
  while (prepared.advance_interval()) ++advances;
  const ExperimentResult stepped = prepared.finalize();
  // Each call runs one interval and returns true; one more call finds the
  // program finished and returns false.
  EXPECT_EQ(advances, cfg.num_intervals);
  EXPECT_EQ(stepped.outcome.intervals_completed, cfg.num_intervals);
  EXPECT_EQ(stepped.intervals.size(), cfg.num_intervals);
  EXPECT_GT(stepped.wall_seconds, 0.0);
  expect_identical(stepped, run_experiment(cfg), "stepped");
}

// PreparedExperiment's contract: a run owns its system, sources and RNG
// streams, so advancing several runs round-robin on one thread (live
// streamed-resolve runs with helpers in flight next to a spooled replay)
// leaves each bit-identical to running it alone.
TEST(Experiment, InterleavedPreparedRunsMatchTheirSoloRuns) {
  const std::string dir = ::testing::TempDir() + "/capart_interleaved";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<ExperimentConfig> configs;
  configs.push_back(small("cg"));
  ExperimentConfig ucp = small("ft");
  ucp.policy = "ucp";
  configs.push_back(ucp);
  ExperimentConfig spooled = small("mgrid");
  spooled.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  spooled.policy = "none";
  spooled.trace_spool_dir = dir;
  configs.push_back(spooled);

  std::vector<std::unique_ptr<PreparedExperiment>> runs;
  for (const ExperimentConfig& cfg : configs) {
    runs.push_back(std::make_unique<PreparedExperiment>(cfg));
  }
  std::vector<bool> live(runs.size(), true);
  for (std::size_t left = runs.size(); left > 0;) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (live[r] && !runs[r]->advance_interval()) {
        live[r] = false;
        --left;
      }
    }
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    expect_identical(runs[r]->finalize(), run_experiment(configs[r]),
                     configs[r].profile);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace capart::sim
