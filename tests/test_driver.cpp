#include "src/sim/driver.hpp"

#include <gtest/gtest.h>

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
  c.l2 = {.sets = 16, .ways = 8, .line_bytes = 64};
  c.l2_mode = mem::L2Mode::kPartitionedShared;
  return c;
}

sim::DriverConfig driver_config(Instructions interval_instructions) {
  sim::DriverConfig dc;
  dc.interval_instructions = interval_instructions;
  return dc;
}

std::unique_ptr<trace::OpSource> generator(ThreadId t, double mem_ratio,
                                           std::uint32_t ws = 64) {
  trace::Phase phase;
  phase.params.mem_ratio = mem_ratio;
  phase.params.working_set_blocks = ws;
  phase.params.share_fraction = 0.0;
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

// The heap scheduler must be a pure data-structure swap: same thread picked
// at every step as the scan, hence bit-identical outcomes and counters. Runs
// a deliberately uneven 8-thread workload (mixed memory intensity, two
// barrier groups, interval-callback overhead, one migration) under both
// schedulers and compares everything observable.
TEST(Driver, HeapSchedulerIsBitIdenticalToScan) {
  struct Result {
    RunOutcome outcome;
    std::vector<cpu::CounterBlock> counters;
  };
  const auto run_with = [](SchedulerKind scheduler) {
    const ThreadId n = 8;
    CmpSystem sys(config(n));
    Sources gens;
    for (ThreadId t = 0; t < n; ++t) {
      // Alternate fast compute-bound and slow memory-bound threads so clock
      // ties and barrier stalls both occur.
      gens.push_back(t % 2 == 0 ? generator(t, 0.05)
                                : generator(t, 0.5, 2'048));
    }
    DriverConfig dc;
    dc.interval_instructions = 20'000;
    dc.scheduler = scheduler;
    dc.barrier_group = {0, 0, 0, 0, 1, 1, 1, 1};
    Driver driver(sys, make_uniform_program(n, 6, 15'000), std::move(gens),
                  dc);
    driver.set_interval_callback([](std::uint64_t) -> Cycles { return 250; });
    driver.schedule_migration(2, 0, 1);
    Result r;
    r.outcome = driver.run();
    for (ThreadId t = 0; t < n; ++t) {
      r.counters.push_back(sys.counters().thread(t));
    }
    return r;
  };
  const Result scan = run_with(SchedulerKind::kScan);
  const Result heap = run_with(SchedulerKind::kHeap);
  EXPECT_EQ(scan.outcome.total_cycles, heap.outcome.total_cycles);
  EXPECT_EQ(scan.outcome.intervals_completed, heap.outcome.intervals_completed);
  EXPECT_EQ(scan.outcome.instructions_retired,
            heap.outcome.instructions_retired);
  ASSERT_EQ(scan.counters.size(), heap.counters.size());
  for (std::size_t t = 0; t < scan.counters.size(); ++t) {
    const cpu::CounterBlock& a = scan.counters[t];
    const cpu::CounterBlock& b = heap.counters[t];
    EXPECT_EQ(a.instructions, b.instructions) << "thread " << t;
    EXPECT_EQ(a.exec_cycles, b.exec_cycles) << "thread " << t;
    EXPECT_EQ(a.stall_cycles, b.stall_cycles) << "thread " << t;
    EXPECT_EQ(a.l1_accesses, b.l1_accesses) << "thread " << t;
    EXPECT_EQ(a.l1_misses, b.l1_misses) << "thread " << t;
    EXPECT_EQ(a.l2_accesses, b.l2_accesses) << "thread " << t;
    EXPECT_EQ(a.l2_hits, b.l2_hits) << "thread " << t;
    EXPECT_EQ(a.l2_misses, b.l2_misses) << "thread " << t;
  }
}

// The sliced run loop PreparedExperiment drives: each advance_interval()
// that returns true has fired exactly one more interval boundary, and the
// sliced run ends where the monolithic run() does, under both schedulers.
TEST(Driver, EachAdvanceFiresExactlyOneBoundary) {
  for (const SchedulerKind scheduler :
       {SchedulerKind::kScan, SchedulerKind::kHeap}) {
    const auto make = [scheduler](CmpSystem& sys,
                                  std::vector<std::uint64_t>& fired) {
      const ThreadId n = 8;
      Sources gens;
      for (ThreadId t = 0; t < n; ++t) {
        gens.push_back(t % 2 == 0 ? generator(t, 0.05)
                                  : generator(t, 0.5, 2'048));
      }
      DriverConfig dc;
      dc.interval_instructions = 20'000;
      dc.scheduler = scheduler;
      dc.barrier_group = {0, 0, 0, 0, 1, 1, 1, 1};
      auto driver = std::make_unique<Driver>(
          sys, make_uniform_program(n, 6, 15'000), std::move(gens), dc);
      driver->set_interval_callback([&fired](std::uint64_t index) -> Cycles {
        fired.push_back(index);
        return 250;
      });
      return driver;
    };
    const char* what =
        scheduler == SchedulerKind::kScan ? "scan" : "heap";

    CmpSystem whole_sys(config(8));
    std::vector<std::uint64_t> whole_fired;
    const RunOutcome whole = make(whole_sys, whole_fired)->run();

    CmpSystem sliced_sys(config(8));
    std::vector<std::uint64_t> sliced_fired;
    const std::unique_ptr<Driver> sliced = make(sliced_sys, sliced_fired);
    sliced->begin();
    std::uint64_t advances = 0;
    while (sliced->advance_interval()) {
      ++advances;
      ASSERT_EQ(sliced_fired.size(), advances) << what;
      EXPECT_EQ(sliced_fired.back(), advances - 1) << what;
    }
    const RunOutcome out = sliced->finalize();

    EXPECT_EQ(sliced_fired, whole_fired) << what;
    EXPECT_EQ(advances, whole.intervals_completed) << what;
    EXPECT_EQ(out.total_cycles, whole.total_cycles) << what;
    EXPECT_EQ(out.intervals_completed, whole.intervals_completed) << what;
    EXPECT_EQ(out.instructions_retired, whole.instructions_retired) << what;
    for (ThreadId t = 0; t < 8; ++t) {
      EXPECT_EQ(sliced_sys.counters().thread(t).exec_cycles,
                whole_sys.counters().thread(t).exec_cycles)
          << what << " thread " << t;
      EXPECT_EQ(sliced_sys.counters().thread(t).l2_misses,
                whole_sys.counters().thread(t).l2_misses)
          << what << " thread " << t;
    }
  }
}

TEST(Driver, AutoSchedulerMatchesScanAtSmallThreadCounts) {
  // kAuto stays on the scan for <= 4 threads and must equal an explicit
  // kHeap run regardless (the dispatch is outcome-invariant either way).
  const auto total = [](SchedulerKind scheduler) {
    CmpSystem sys(config(2));
    Sources gens;
    gens.push_back(generator(0, 0.3));
    gens.push_back(generator(1, 0.4));
    DriverConfig dc;
    dc.scheduler = scheduler;
    Driver driver(sys, make_uniform_program(2, 3, 8'000), std::move(gens),
                  dc);
    return driver.run().total_cycles;
  };
  const Cycles auto_cycles = total(SchedulerKind::kAuto);
  EXPECT_EQ(auto_cycles, total(SchedulerKind::kScan));
  EXPECT_EQ(auto_cycles, total(SchedulerKind::kHeap));
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
