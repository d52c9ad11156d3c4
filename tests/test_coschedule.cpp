// Integration tests for the multi-application co-scheduling API (paper
// §VI-C / Fig 16 as a library feature).
#include "src/sim/coschedule.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "tests/expect_config_error.hpp"

namespace capart::sim {
namespace {

CoScheduleConfig small_pair() {
  CoScheduleConfig cfg;
  cfg.apps = {CoScheduledApp{.profile = "cg", .num_threads = 2},
              CoScheduledApp{.profile = "lu", .num_threads = 2}};
  cfg.num_intervals = 10;
  cfg.interval_instructions = 80'000;
  cfg.seed = 3;
  return cfg;
}

TEST(CoSchedule, RunsTwoAppsToCompletion) {
  const CoScheduleResult r = run_coscheduled(small_pair());
  EXPECT_EQ(r.outcome.instructions_retired, 10u * 80'000u);
  ASSERT_EQ(r.app_cycles.size(), 2u);
  EXPECT_GT(r.app_cycles[0], 0u);
  EXPECT_GT(r.app_cycles[1], 0u);
  EXPECT_EQ(r.app_threads[0], (std::vector<ThreadId>{0, 1}));
  EXPECT_EQ(r.app_threads[1], (std::vector<ThreadId>{2, 3}));
}

TEST(CoSchedule, AppsFinishIndependently) {
  // cg is much slower than lu: with separate barrier domains their
  // completion times must differ substantially.
  const CoScheduleResult r = run_coscheduled(small_pair());
  EXPECT_GT(r.app_cycles[0], r.app_cycles[1] * 3 / 2);
  // And the wall clock is the slower app's finish time.
  EXPECT_EQ(r.outcome.total_cycles,
            std::max(r.app_cycles[0], r.app_cycles[1]));
}

TEST(CoSchedule, FinalSharesSumToTotalWays) {
  const CoScheduleResult r = run_coscheduled(small_pair());
  EXPECT_EQ(std::accumulate(r.final_app_shares.begin(),
                            r.final_app_shares.end(), 0u),
            64u);
  for (std::uint32_t share : r.final_app_shares) {
    EXPECT_GE(share, 2u);  // one way per thread at minimum
  }
}

TEST(CoSchedule, MissProportionalOsFavoursTheMissierApp) {
  CoScheduleConfig cfg = small_pair();
  cfg.os_mode = core::OsAllocationMode::kMissProportional;
  const CoScheduleResult r = run_coscheduled(cfg);
  // cg misses far more than lu; the OS share must reflect that.
  EXPECT_GT(r.final_app_shares[0], r.final_app_shares[1]);
}

TEST(CoSchedule, DeterministicForSameSeed) {
  const CoScheduleResult a = run_coscheduled(small_pair());
  const CoScheduleResult b = run_coscheduled(small_pair());
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles);
  EXPECT_EQ(a.app_cycles, b.app_cycles);
}

TEST(CoSchedule, IntraAppModelPolicyHelpsTheHeterogeneousApp) {
  CoScheduleConfig with_model = small_pair();
  with_model.num_intervals = 16;
  CoScheduleConfig without = with_model;
  without.apps[0].policy = "none";  // static equal inside cg's share
  without.apps[1].policy = "none";
  const CoScheduleResult m = run_coscheduled(with_model);
  const CoScheduleResult s = run_coscheduled(without);
  // cg (heterogeneous) should benefit from intra-app partitioning.
  EXPECT_LT(m.app_cycles[0], s.app_cycles[0]);
}

TEST(CoSchedule, ThreeAppsWork) {
  CoScheduleConfig cfg;
  cfg.apps = {CoScheduledApp{.profile = "cg", .num_threads = 2},
              CoScheduledApp{.profile = "lu", .num_threads = 1},
              CoScheduledApp{.profile = "bt", .num_threads = 1}};
  cfg.num_intervals = 8;
  cfg.interval_instructions = 60'000;
  const CoScheduleResult r = run_coscheduled(cfg);
  EXPECT_EQ(r.app_cycles.size(), 3u);
  EXPECT_EQ(std::accumulate(r.final_app_shares.begin(),
                            r.final_app_shares.end(), 0u),
            64u);
}

TEST(CoSchedule, RejectsEmptyConfigs) {
  CoScheduleConfig empty;
  EXPECT_DEATH(run_coscheduled(empty), "at least one app");
}

TEST(CoSchedule, RejectsEmptyOrOverflowingInstructionBudgets) {
  CoScheduleConfig cfg = small_pair();
  cfg.num_intervals = 2;
  cfg.interval_instructions = Instructions{1} << 63;
  EXPECT_CONFIG_ERROR(run_coscheduled(cfg), "fit 64 bits");
  cfg.interval_instructions = 0;
  EXPECT_CONFIG_ERROR(run_coscheduled(cfg), "must be positive");
  cfg.interval_instructions = 80'000;
  cfg.num_intervals = 0;  // abl_hierarchical --intervals=0 once aborted
  EXPECT_CONFIG_ERROR(run_coscheduled(cfg), "must be positive");
}

}  // namespace
}  // namespace capart::sim
