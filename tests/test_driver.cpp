#include "src/sim/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/program.hpp"
#include "src/trace/phase.hpp"

namespace capart::sim {
namespace {

SystemConfig config(ThreadId threads) {
  SystemConfig c;
  c.num_threads = threads;
  c.l1 = {.sets = 4, .ways = 2, .line_bytes = 64};
  // A way per thread at least, as per-thread way targets need.
  c.l2 = {.sets = 16, .ways = std::max<ThreadId>(threads, 8), .line_bytes = 64};
  c.l2_mode = mem::L2Mode::kPartitionedShared;
  return c;
}

sim::DriverConfig driver_config(Instructions interval_instructions) {
  sim::DriverConfig dc;
  dc.interval_instructions = interval_instructions;
  return dc;
}

std::unique_ptr<trace::OpSource> generator(ThreadId t, double mem_ratio,
                                           std::uint32_t ws = 64,
                                           double share_fraction = 0.0) {
  trace::Phase phase;
  phase.params.mem_ratio = mem_ratio;
  phase.params.working_set_blocks = ws;
  phase.params.share_fraction = share_fraction;
  phase.duration = 1'000'000;
  return std::make_unique<trace::PhasedGenerator>(
      trace::PhaseSchedule({phase}), Rng(100 + t), (Addr{t} + 1) << 40,
      Addr{1} << 50);
}

using Sources = std::vector<std::unique_ptr<trace::OpSource>>;

TEST(Driver, RetiresExactlyTheProgrammedInstructions) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Driver driver(sys, make_uniform_program(2, 4, 10'000), std::move(gens),
                driver_config(5'000));
  const RunOutcome out = driver.run();
  EXPECT_EQ(out.instructions_retired, 20'000u);
  EXPECT_EQ(sys.counters().thread(0).instructions, 10'000u);
  EXPECT_EQ(sys.counters().thread(1).instructions, 10'000u);
  EXPECT_GT(out.total_cycles, 20'000u / 2);
}

TEST(Driver, IntervalCallbackFiresOncePerBoundary) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Driver driver(sys, make_uniform_program(2, 2, 10'000), std::move(gens),
                driver_config(4'000));
  std::vector<std::uint64_t> fired;
  driver.set_interval_callback([&](std::uint64_t idx) -> Cycles {
    fired.push_back(idx);
    return 0;
  });
  const RunOutcome out = driver.run();
  // 20'000 aggregate instructions / 4'000 = 5 boundaries.
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(out.intervals_completed, 5u);
}

TEST(Driver, CallbackOverheadSlowsEveryThread) {
  auto run_with_overhead = [&](Cycles overhead) {
    CmpSystem sys(config(2));
    Sources gens;
    gens.push_back(generator(0, 0.3));
    gens.push_back(generator(1, 0.3));
    Driver driver(sys, make_uniform_program(2, 2, 10'000), std::move(gens),
                  driver_config(4'000));
    driver.set_interval_callback(
        [overhead](std::uint64_t) -> Cycles { return overhead; });
    return driver.run().total_cycles;
  };
  const Cycles base = run_with_overhead(0);
  const Cycles loaded = run_with_overhead(1'000);
  EXPECT_GE(loaded, base + 4'000);  // ~5 boundaries x 1000 cycles
}

TEST(Driver, FastThreadStallsAtBarriers) {
  CmpSystem sys(config(2));
  // Thread 1 is much more memory-intensive (slower).
  Sources gens;
  gens.push_back(generator(0, 0.05));
  gens.push_back(generator(1, 0.6, 4'096));
  Driver driver(sys, make_uniform_program(2, 5, 20'000), std::move(gens),
                driver_config(100'000));
  driver.run();
  const auto& fast = sys.counters().thread(0);
  const auto& slow = sys.counters().thread(1);
  EXPECT_GT(fast.stall_cycles, slow.stall_cycles * 5);
  EXPECT_LT(fast.exec_cycles, slow.exec_cycles);
}

TEST(Driver, TotalCyclesIsTheSlowestThreadWallClock) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.05));
  gens.push_back(generator(1, 0.5, 4'096));
  Driver driver(sys, make_uniform_program(2, 3, 9'000), std::move(gens), {});
  const RunOutcome out = driver.run();
  // Barriers synchronize: both threads end at the same wall clock, which is
  // exec + stall for each.
  const auto& c0 = sys.counters().thread(0);
  const auto& c1 = sys.counters().thread(1);
  EXPECT_EQ(c0.exec_cycles + c0.stall_cycles, out.total_cycles);
  EXPECT_EQ(c1.exec_cycles + c1.stall_cycles, out.total_cycles);
}

TEST(Driver, BarrierGroupsSynchronizeIndependently) {
  CmpSystem sys(config(4));
  // Group 0 = {0 fast, 1 very slow}; group 1 = {2, 3} evenly matched.
  Sources gens;
  gens.push_back(generator(0, 0.05));
  gens.push_back(generator(1, 0.6, 4'096));
  gens.push_back(generator(2, 0.2));
  gens.push_back(generator(3, 0.2));
  DriverConfig dc;
  dc.barrier_group = {0, 0, 1, 1};
  Driver driver(sys, make_uniform_program(4, 5, 20'000), std::move(gens), dc);
  driver.run();
  // Thread 0 pays for thread 1; threads 2/3 only pay for each other.
  EXPECT_GT(sys.counters().thread(0).stall_cycles,
            10 * sys.counters().thread(2).stall_cycles);
  // Group 1 members end synchronized with each other.
  const auto& c2 = sys.counters().thread(2);
  const auto& c3 = sys.counters().thread(3);
  EXPECT_EQ(c2.exec_cycles + c2.stall_cycles, c3.exec_cycles + c3.stall_cycles);
}

TEST(Driver, ZeroWorkSectionsDoNotHang) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Program p;
  p.sections.push_back({.work = {1'000, 0}});  // sequential on thread 0
  p.sections.push_back({.work = {0, 0}});      // empty barrier
  p.sections.push_back({.work = {0, 1'000}});  // sequential on thread 1
  Driver driver(sys, p, std::move(gens), {});
  const RunOutcome out = driver.run();
  EXPECT_EQ(out.instructions_retired, 2'000u);
}

TEST(Driver, ScheduledMigrationSwapsCoreBindings) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Driver driver(sys, make_uniform_program(2, 2, 10'000), std::move(gens),
                driver_config(5'000));
  driver.schedule_migration(1, 0, 1);
  driver.run();
  EXPECT_EQ(sys.core_of(0), 1u);
  EXPECT_EQ(sys.core_of(1), 0u);
}

TEST(Driver, BarrierReleaseCostIsCharged) {
  auto run_with_cost = [&](Cycles cost) {
    CmpSystem sys(config(2));
    Sources gens;
    gens.push_back(generator(0, 0.3));
    gens.push_back(generator(1, 0.3));
    DriverConfig dc;
    dc.barrier_release_cost = cost;
    Driver driver(sys, make_uniform_program(2, 10, 5'000), std::move(gens),
                  dc);
    return driver.run().total_cycles;
  };
  EXPECT_GE(run_with_cost(1'000), run_with_cost(0) + 10 * 1'000);
}

/// The uneven run the driver's schedule is pinned on: alternating fast
/// compute-bound and slow memory-bound threads (so clock ties and barrier
/// stalls both occur) in two barrier groups, with interval-callback
/// overhead. `share_fraction` of each thread's accesses go to data all
/// threads share.
std::unique_ptr<Driver> uneven_driver(CmpSystem& sys, ThreadId n,
                                      IntervalCallback callback,
                                      double share_fraction = 0.0) {
  Sources gens;
  std::vector<std::uint32_t> groups;
  for (ThreadId t = 0; t < n; ++t) {
    gens.push_back(t % 2 == 0 ? generator(t, 0.05, 64, share_fraction)
                              : generator(t, 0.5, 2'048, share_fraction));
    groups.push_back(t < n / 2 ? 0 : 1);
  }
  DriverConfig dc;
  dc.interval_instructions = Instructions{2'500} * n;
  dc.barrier_group = groups;
  auto driver = std::make_unique<Driver>(
      sys, make_uniform_program(n, 6, 15'000), std::move(gens), dc);
  driver->set_interval_callback(std::move(callback));
  return driver;
}

// The schedule is pinned, not just self-consistent: the outcome and every
// thread's counters of the uneven 8-thread run (plus one migration), and
// the total cycles of a plain 2-thread run, equal the values recorded when
// a linear scan and a binary heap both picked the threads (and agreed).
TEST(Driver, UnevenScheduleMatchesPinnedCounters) {
  CmpSystem sys(config(8));
  const std::unique_ptr<Driver> driver =
      uneven_driver(sys, 8, [](std::uint64_t) -> Cycles { return 250; });
  driver->schedule_migration(2, 0, 1);
  const RunOutcome out = driver->run();
  EXPECT_EQ(out.total_cycles, 834'082u);
  EXPECT_EQ(out.intervals_completed, 6u);
  EXPECT_EQ(out.instructions_retired, 120'000u);
  // instructions, exec, stall, l1 accesses, l1 misses, l2 accesses, l2
  // hits, l2 misses.
  const std::uint64_t pinned[8][8] = {
      {15'000, 65'602, 766'192, 764, 411, 411, 116, 295},
      {15'000, 814'174, 17'620, 7'472, 5'435, 5'435, 507, 4'928},
      {15'000, 57'602, 774'192, 732, 378, 378, 126, 252},
      {15'000, 818'886, 12'908, 7'517, 5'545, 5'545, 553, 4'992},
      {15'000, 60'594, 773'488, 718, 368, 368, 102, 266},
      {15'000, 814'522, 19'560, 7'517, 5'475, 5'475, 546, 4'929},
      {15'000, 61'606, 772'476, 770, 389, 389, 113, 276},
      {15'000, 826'290, 7'792, 7'552, 5'526, 5'526, 530, 4'996},
  };
  for (ThreadId t = 0; t < 8; ++t) {
    const cpu::CounterBlock& c = sys.counters().thread(t);
    const std::uint64_t got[8] = {c.instructions, c.exec_cycles,
                                  c.stall_cycles, c.l1_accesses,
                                  c.l1_misses,    c.l2_accesses,
                                  c.l2_hits,      c.l2_misses};
    for (int field = 0; field < 8; ++field) {
      EXPECT_EQ(got[field], pinned[t][field])
          << "thread " << t << " field " << field;
    }
  }

  CmpSystem pair_sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.4));
  Driver pair(pair_sys, make_uniform_program(2, 3, 8'000), std::move(gens),
              {});
  EXPECT_EQ(pair.run().total_cycles, 49'620u);
}

// The 8-thread run above shares no data, so the order in which threads
// reach the L2 barely moves its counters: it misses a scheduler that picks
// a thread one cycle late. Here 33 threads (the tree's 64 leaves are mostly
// padding) share half their data through one LRU-managed L2, and the
// totals recorded at the same point must hold.
TEST(Driver, SharedDataRunAtThirtyThreeThreadsMatchesPinnedTotals) {
  SystemConfig c = config(33);
  c.l2 = {.sets = 16, .ways = 8, .line_bytes = 64};
  c.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  CmpSystem sys(c);
  const RunOutcome out =
      uneven_driver(sys, 33, [](std::uint64_t) -> Cycles { return 250; }, 0.5)
          ->run();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  Cycles stall = 0;
  for (ThreadId t = 0; t < 33; ++t) {
    hits += sys.counters().thread(t).l2_hits;
    misses += sys.counters().thread(t).l2_misses;
    stall += sys.counters().thread(t).stall_cycles;
  }
  EXPECT_EQ(out.total_cycles, 1'169'294u);
  EXPECT_EQ(hits, 9'789u);
  EXPECT_EQ(misses, 108'718u);
  EXPECT_EQ(stall, 18'372'804u);
}

// The sliced run loop PreparedExperiment drives: each advance_interval()
// that returns true has fired exactly one more interval boundary, and the
// sliced run ends where the monolithic run() does — at one thread, at
// eight, and at 33 (one past a power of two, so the scheduler's tree has
// idle padding leaves).
TEST(Driver, EachAdvanceFiresExactlyOneBoundary) {
  for (const ThreadId n : {ThreadId{1}, ThreadId{8}, ThreadId{33}}) {
    SCOPED_TRACE(::testing::Message() << n << " threads");
    const auto recorder = [](std::vector<std::uint64_t>& fired) {
      return [&fired](std::uint64_t index) -> Cycles {
        fired.push_back(index);
        return 250;
      };
    };
    CmpSystem whole_sys(config(n));
    std::vector<std::uint64_t> whole_fired;
    const RunOutcome whole =
        uneven_driver(whole_sys, n, recorder(whole_fired))->run();
    EXPECT_EQ(whole.intervals_completed, 6u);

    CmpSystem sliced_sys(config(n));
    std::vector<std::uint64_t> sliced_fired;
    const std::unique_ptr<Driver> sliced =
        uneven_driver(sliced_sys, n, recorder(sliced_fired));
    sliced->begin();
    std::uint64_t advances = 0;
    while (sliced->advance_interval()) {
      ++advances;
      ASSERT_EQ(sliced_fired.size(), advances);
      EXPECT_EQ(sliced_fired.back(), advances - 1);
    }
    const RunOutcome out = sliced->finalize();

    EXPECT_EQ(sliced_fired, whole_fired);
    EXPECT_EQ(advances, whole.intervals_completed);
    EXPECT_EQ(out.total_cycles, whole.total_cycles);
    EXPECT_EQ(out.intervals_completed, whole.intervals_completed);
    EXPECT_EQ(out.instructions_retired, whole.instructions_retired);
    for (ThreadId t = 0; t < n; ++t) {
      EXPECT_EQ(sliced_sys.counters().thread(t).exec_cycles,
                whole_sys.counters().thread(t).exec_cycles)
          << "thread " << t;
      EXPECT_EQ(sliced_sys.counters().thread(t).l2_misses,
                whole_sys.counters().thread(t).l2_misses)
          << "thread " << t;
    }
  }
}

TEST(Driver, RejectsMismatchedConfiguration) {
  CmpSystem sys(config(2));
  Sources one;
  one.push_back(generator(0, 0.3));
  EXPECT_DEATH(Driver(sys, make_uniform_program(2, 2, 100), std::move(one),
                      {}),
               "one op source per thread");
  Sources three;
  three.push_back(generator(0, 0.3));
  three.push_back(generator(1, 0.3));
  three.push_back(generator(2, 0.3));
  EXPECT_DEATH(Driver(sys, make_uniform_program(3, 2, 100), std::move(three),
                      {}),
               "match the system");
}

}  // namespace
}  // namespace capart::sim
