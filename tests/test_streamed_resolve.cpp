// Differential tests for the streamed resolve (sim/streamed_resolve.hpp),
// the default live path: each thread's stream is generated and resolved
// against its private caches ahead of the driver — on helper threads when
// the host has spare CPUs, inline otherwise — and replayed through
// CmpSystem::memory_access_resolved. Its contract is that none of this is
// observable: a streamed run must agree per interval and per thread with
// the unresolved reference (caller-supplied PhasedGenerators, private caches
// simulated by the driver) and with a spooled replay. Plus the lifecycle
// edges: destruction before the first fill, a cancellation unwinding while
// helpers are mid-chunk, a helper's exception surfacing from fill() as the
// run's error, and the helper-less inline path.
#include "src/sim/streamed_resolve.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/replacement.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/experiment.hpp"

namespace capart::sim {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Instructions per_thread_work(const ExperimentConfig& cfg) {
  return cfg.interval_instructions * cfg.num_intervals / cfg.num_threads;
}

/// The unresolved reference: live generators handed in by the caller, so
/// the driver simulates every thread's private caches itself.
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

ExperimentResult run_spooled(ExperimentConfig cfg, const std::string& dir) {
  cfg.trace_spool_dir = dir;
  return run_experiment(cfg);
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles) << what;
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired)
      << what;
  const mem::ThreadCacheCounters ta = a.l2_stats.total();
  const mem::ThreadCacheCounters tb = b.l2_stats.total();
  EXPECT_EQ(ta.accesses, tb.accesses) << what;
  EXPECT_EQ(ta.hits, tb.hits) << what;
  EXPECT_EQ(ta.misses, tb.misses) << what;
  EXPECT_EQ(ta.writebacks, tb.writebacks) << what;
  ASSERT_EQ(a.thread_totals.size(), b.thread_totals.size()) << what;
  for (std::size_t t = 0; t < a.thread_totals.size(); ++t) {
    const cpu::CounterBlock& x = a.thread_totals[t];
    const cpu::CounterBlock& y = b.thread_totals[t];
    const std::string where = what + " thread " + std::to_string(t);
    EXPECT_EQ(x.l1_accesses, y.l1_accesses) << where;
    EXPECT_EQ(x.l1_misses, y.l1_misses) << where;
    EXPECT_EQ(x.private_l2_accesses, y.private_l2_accesses) << where;
    EXPECT_EQ(x.private_l2_hits, y.private_l2_hits) << where;
    EXPECT_EQ(x.private_l2_misses, y.private_l2_misses) << where;
    EXPECT_EQ(x.contention_wait_cycles, y.contention_wait_cycles) << where;
  }
  ASSERT_EQ(a.intervals.size(), b.intervals.size()) << what;
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    ASSERT_EQ(a.intervals[i].threads.size(), b.intervals[i].threads.size());
    for (std::size_t t = 0; t < a.intervals[i].threads.size(); ++t) {
      const ThreadIntervalRecord& x = a.intervals[i].threads[t];
      const ThreadIntervalRecord& y = b.intervals[i].threads[t];
      const std::string where = what + " interval " + std::to_string(i) +
                                " thread " + std::to_string(t);
      EXPECT_EQ(x.instructions, y.instructions) << where;
      EXPECT_EQ(x.exec_cycles, y.exec_cycles) << where;
      EXPECT_EQ(x.stall_cycles, y.stall_cycles) << where;
      EXPECT_EQ(x.l1_misses, y.l1_misses) << where;
      EXPECT_EQ(x.l2_accesses, y.l2_accesses) << where;
      EXPECT_EQ(x.l2_hits, y.l2_hits) << where;
      EXPECT_EQ(x.l2_misses, y.l2_misses) << where;
      EXPECT_EQ(x.ways, y.ways) << where;
    }
  }
}

/// Streamed (run_experiment, no spool), unresolved and spooled runs of
/// `cfg` must all agree.
void expect_three_paths_agree(const ExperimentConfig& cfg,
                              const std::string& dir, const std::string& what) {
  const ExperimentResult streamed = run_experiment(cfg);
  expect_identical(run_unresolved(cfg), streamed, what + " (unresolved)");
  expect_identical(run_spooled(cfg, dir), streamed, what + " (spooled)");
}

struct EnforceMode {
  const char* name;
  mem::L2Mode l2_mode;
  mem::L2Enforce enforce;
};

const EnforceMode kModes[] = {
    {"default", mem::L2Mode::kPartitionedShared, mem::L2Enforce::kModeDefault},
    {"eviction-control", mem::L2Mode::kPartitionedShared,
     mem::L2Enforce::kEvictionControl},
    {"clos", mem::L2Mode::kPartitionedShared, mem::L2Enforce::kClosWayMask},
    {"flush", mem::L2Mode::kFlushReconfigureShared,
     mem::L2Enforce::kModeDefault},
};

const mem::ReplacementKind kRepls[] = {mem::ReplacementKind::kTrueLru,
                                       mem::ReplacementKind::kTreePlru,
                                       mem::ReplacementKind::kSrrip};

ExperimentConfig small(const std::string& profile, std::uint64_t seed) {
  ExperimentConfig c;
  c.profile = profile;
  c.num_threads = 4;
  c.num_intervals = 6;
  c.interval_instructions = 24'000;
  c.policy = "model-based";
  c.seed = seed;
  return c;
}

TEST(StreamedResolve, MatchesUnresolvedAndSpooledAcrossTheMatrix) {
  const std::uint64_t base_seed = std::random_device{}();
  std::printf("streamed resolve differential base_seed=%llu\n",
              static_cast<unsigned long long>(base_seed));
  const std::string dir = fresh_dir("capart_streamed_matrix");
  std::mt19937_64 mix(base_seed);
  // ucp reads the shadow-tag utility monitor, which observes every shared
  // access the replayed streams make.
  for (const char* policy : {"model-based", "ucp"}) {
    for (const mem::ReplacementKind repl : kRepls) {
      for (const EnforceMode& mode : kModes) {
        ExperimentConfig cfg = small("cg", mix());
        cfg.policy = policy;
        cfg.l2_mode = mode.l2_mode;
        cfg.l2_enforce = mode.enforce;
        cfg.l2.repl = repl;
        cfg.l1.repl = repl;
        expect_three_paths_agree(cfg, dir,
                                 std::string(policy) + "/" +
                                     std::string(mem::to_string(repl)) + "/" +
                                     mode.name + " seed=" +
                                     std::to_string(cfg.seed));
      }
    }
  }
}

TEST(StreamedResolve, PrivateL2AndPhaseSwitchingProfilesMatch) {
  // swim and applu switch generator phases 350-700 k instructions into each
  // thread's stream; 960 k instructions per thread crosses a switch on
  // every thread, with the private L2 in front of the shared cache.
  const std::string dir = fresh_dir("capart_streamed_phases");
  for (const char* profile : {"swim", "applu"}) {
    ExperimentConfig cfg = small(profile, 31);
    cfg.num_intervals = 16;
    cfg.interval_instructions = 240'000;
    cfg.enable_private_l2 = true;
    expect_three_paths_agree(cfg, dir, std::string(profile) + "/pl2");
  }
}

TEST(StreamedResolve, ThirtyTwoThreadsMatch) {
  // The heap scheduler, bank timing and CLOS masks over 32 streams at once:
  // far more streams than helpers, so most chunks race the driver.
  ExperimentConfig cfg = small("cg", 32);
  cfg.num_threads = 32;
  cfg.interval_instructions = 32 * 6'000;
  cfg.l2_banks = 8;
  cfg.l2_enforce = mem::L2Enforce::kClosWayMask;
  expect_three_paths_agree(cfg, fresh_dir("capart_streamed_32t"), "cg/32t");
}

TEST(StreamedResolve, InlineOnlyPathMatches) {
  // What a single-CPU host runs: no ring, no helper, every op resolved
  // straight into the driver's ring.
  const ExperimentConfig cfg = small("ft", 41);
  force_inline_resolve_for_testing(true);
  const ExperimentResult inline_only = run_experiment(cfg);
  force_inline_resolve_for_testing(false);
  expect_identical(run_unresolved(cfg), inline_only, "ft inline");
  expect_identical(run_experiment(cfg), inline_only, "ft pooled");
}

TEST(StreamedResolve, ResolverLeavesOnlyTheUnexecutedTailUnresolved) {
  ExperimentConfig cfg = small("cg", 43);
  const ResolveSpec spec = make_resolve_spec(
      cfg, trace::make_profile(cfg.profile, cfg.num_threads),
      per_thread_work(cfg));
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    ThreadResolver resolver(spec, t);
    std::vector<trace::NextOp> ops(300);
    std::vector<trace::NextOp> all;
    while (const std::size_t got = resolver.fill(ops.data(), ops.size())) {
      all.insert(all.end(), ops.begin(),
                 ops.begin() + static_cast<std::ptrdiff_t>(got));
    }
    EXPECT_TRUE(resolver.exhausted());
    ASSERT_FALSE(all.empty());
    Instructions pulled = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const bool executed = pulled + all[i].gap + 1 <= spec.per_thread;
      EXPECT_EQ(all[i].resolved != trace::ResolvedLevel::kUnresolved,
                executed)
          << "thread " << t << " op " << i;
      EXPECT_TRUE(executed || i + 1 == all.size()) << "thread " << t;
      pulled += all[i].gap + 1;
    }
    EXPECT_GE(pulled, spec.per_thread);
  }
}

TEST(StreamedResolve, DestructionBeforeTheFirstFillIsClean) {
  const ExperimentConfig cfg = small("cg", 47);
  {
    // Sources whose streams were never built: nothing attached, nothing to
    // wait for.
    auto sources = streamed_sources(
        cfg, trace::make_profile(cfg.profile, cfg.num_threads),
        per_thread_work(cfg));
    ASSERT_EQ(sources.size(), cfg.num_threads);
  }
  { PreparedExperiment never_advanced(cfg); }
  expect_identical(run_unresolved(cfg), run_experiment(cfg), "after");
}

TEST(StreamedResolve, IneligibleRunsGetNoStreamedSources) {
  const trace::BenchmarkProfile profile = trace::make_profile("cg", 4);
  ExperimentConfig spooled = small("cg", 1);
  spooled.trace_spool_dir = "/tmp";
  EXPECT_TRUE(streamed_sources(spooled, profile, 1000).empty());
  ExperimentConfig migrating = small("cg", 1);
  migrating.migrations.push_back({.interval = 2, .a = 0, .b = 1});
  EXPECT_TRUE(streamed_sources(migrating, profile, 1000).empty());
}

TEST(StreamedResolve, CancelMidRunUnwindsWithHelpersInFlight) {
  // Cancel at a boundary while helpers are filling chunks ahead: the run
  // throws CancelledError, and destroying it waits out the in-flight chunks
  // (a use-after-free here is what the sanitizer jobs would catch).
  ExperimentConfig cfg = small("ft", 53);
  cfg.num_intervals = 400;
  for (int attempt = 0; attempt < 3; ++attempt) {
    CancelToken token;
    cfg.cancel = &token;
    PreparedExperiment prepared(cfg);
    for (int i = 0; i < 3 + attempt; ++i) {
      ASSERT_TRUE(prepared.advance_interval());
    }
    token.cancel();
    EXPECT_THROW(prepared.advance_interval(), CancelledError);
  }
  {
    // And from another thread, at whatever point the driver has reached.
    CancelToken token;
    cfg.cancel = &token;
    std::thread firer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      token.cancel();
    });
    EXPECT_THROW((void)run_experiment(cfg), CancelledError);
    firer.join();
  }

  // Nothing is left poisoned: a clean run still matches the reference, and
  // so does a spooled retry of the same shape, which resolves, replays and
  // completes.
  cfg.cancel = nullptr;
  cfg.num_intervals = 6;
  const ExperimentResult reference = run_unresolved(cfg);
  expect_identical(reference, run_experiment(cfg), "after cancel");
  const ExperimentResult spooled =
      run_spooled(cfg, fresh_dir("capart_streamed_cancel"));
  EXPECT_EQ(spooled.intervals.size(), 6u);
  expect_identical(reference, spooled, "spooled after cancel");
}

TEST(StreamedResolve, HelperExceptionSurfacesFromFill) {
  if (streamed_resolve_helpers() == 0) {
    GTEST_SKIP() << "single-CPU affinity: no helper threads to fail";
  }
  struct FailHelpers {
    FailHelpers() { fail_helper_chunks_for_testing(true); }
    ~FailHelpers() { fail_helper_chunks_for_testing(false); }
  };
  std::optional<FailHelpers> failing(std::in_place);
  ExperimentConfig cfg = small("cg", 59);
  cfg.num_intervals = 40;
  {
    auto sources = streamed_sources(
        cfg, trace::make_profile(cfg.profile, cfg.num_threads),
        per_thread_work(cfg));
    std::vector<trace::NextOp> ring(256);
    // The first fill starts the streams and wakes the helpers; every chunk
    // a helper resolves is poisoned, and the pauses let them get ahead of
    // this consumer (the stream is far longer than 50 chunks).
    bool thrown = false;
    for (int i = 0; i < 50 && !thrown; ++i) {
      try {
        EXPECT_GT(sources[0]->fill(ring.data(), ring.size()), 0u);
      } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("injected helper fault"),
                  std::string::npos);
        thrown = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(thrown);
  }

  // Through a batch: the helper's failure is the arm's error, contained
  // like any other, never std::terminate.
  ExperimentSpec spec;
  spec.name = "helper_fault";
  spec.add("cg/faulty", cfg);
  const BatchResult batch = BatchRunner(1).run(spec);
  failing.reset();
  const ArmOutcome& arm = batch.outcome("cg/faulty");
  EXPECT_EQ(arm.status, ArmStatus::kFailed);
  EXPECT_NE(arm.error.find("injected helper fault"), std::string::npos)
      << arm.error;

  // The pool survives its helpers' failures.
  const ExperimentConfig clean = small("cg", 59);
  expect_identical(run_unresolved(clean), run_experiment(clean),
                   "after fault");
}

}  // namespace
}  // namespace capart::sim
