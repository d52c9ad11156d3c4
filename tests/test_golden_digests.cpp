// Golden digests: the byte-identity contract as a committed test. Every
// fig 19-21 arm (the nine profiles x model, static_equal, shared and
// throughput) plus cg under tree-PLRU, SRRIP, flush-reconfiguration, page
// coloring, private slices, the rest of the partitioner zoo (umon also over
// a tree-PLRU L2), private L2 slices behind the L1s, and CLOS masks on a
// 4-bank L2 at 8 threads and on an 8-bank L2 at 32 (UMON) and 64 threads
// runs at reduced length, and the FNV-1a64 digest of each interval record
// (and of the run's shared-cache statistics) must equal the one committed in
// tests/golden/digests.json. Each arm is recomputed on every execution
// path: the default streamed path, the same path with every chunk resolved
// inline (what a single-CPU host runs), from a cold spool in a fresh
// directory, from a warm spool another resolve wrote (copied into a
// directory this process never mapped), unresolved (caller-supplied
// generators whose private caches the driver simulates, as migration runs
// and capart_bench's traced sweeps do), and as one batch on four workers
// sharing one cold spool. A mismatch names the arm and its first differing
// interval.
//
// Results are meant to move only deliberately. Regenerate then, and say
// why in CHANGES.md, with:
//   CAPART_REGEN_GOLDEN=1 ./build/tests/capart_tests
//       --gtest_filter=GoldenDigests.StreamedPath
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.hpp"
#include "src/common/rng.hpp"
#include "src/obs/json.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/experiment.hpp"
#include "src/sim/streamed_resolve.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/phase.hpp"

namespace capart {
namespace {

class Fnv64 {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Arm {
  std::string name;
  sim::ExperimentConfig config;
};

/// The pinned arms, at 8 intervals of 20'000 instructions per thread: long
/// enough for every profile but ft, lu and bt (small working sets) to fill
/// the L2, so static_equal and shared already differ.
std::vector<Arm> golden_arms() {
  bench::BenchOptions opt;
  opt.intervals = 8;
  opt.interval_instructions = 80'000;
  std::vector<Arm> arms;
  for (const std::string& profile : trace::benchmark_names()) {
    for (const char* arm : {"model", "static_equal", "shared", "throughput"}) {
      arms.push_back({profile + "/" + arm,
                      bench::make_arm(arm, bench::base_config(opt, profile))});
    }
  }
  const auto cg = [&](const bench::BenchOptions& o, const char* arm) {
    return bench::make_arm(arm, bench::base_config(o, "cg"));
  };
  for (const char* arm : {"flush", "coloring", "private"}) {
    arms.push_back({std::string("cg/") + arm, cg(opt, arm)});
  }
  for (const mem::ReplacementKind repl :
       {mem::ReplacementKind::kTreePlru, mem::ReplacementKind::kSrrip}) {
    bench::BenchOptions o = opt;
    o.l2_repl = repl;
    arms.push_back(
        {"cg/model@" + std::string(to_string(repl)), cg(o, "model")});
  }
  // The rest of the partitioner zoo, among them the UMON readers (lfoc, ucp,
  // umon), and umon over a tree-PLRU L2, whose shadow tags stay true LRU.
  for (const char* arm :
       {"cpi", "fair", "lfoc", "reuse", "time_shared", "ucp", "umon"}) {
    arms.push_back({std::string("cg/") + arm, cg(opt, arm)});
  }
  bench::BenchOptions plru = opt;
  plru.l2_repl = mem::ReplacementKind::kTreePlru;
  arms.push_back({"cg/umon@plru", cg(plru, "umon")});
  // The three-level hierarchy: a private L2 slice per core behind each L1.
  sim::ExperimentConfig private_l2 = cg(opt, "model");
  private_l2.enable_private_l2 = true;
  arms.push_back({"cg/model@private-l2", private_l2});
  bench::BenchOptions clos = opt;
  clos.threads = 8;
  clos.interval_instructions = 160'000;
  clos.l2_banks = 4;
  clos.l2_enforce = mem::L2Enforce::kClosWayMask;
  // The driver's many-thread schedule: capart_bench's clos_32t umon arm
  // (8 banks, nearest mapper), shortened, and CI's 64-thread CLOS smoke
  // setting (minmax mapper) on 8 banks. Listed ahead of the 8-thread arm,
  // which stays the last entry of the committed file.
  bench::BenchOptions clos32 = clos;
  clos32.threads = 32;
  clos32.interval_instructions = 192'000;
  clos32.l2_banks = 8;
  arms.push_back({"cg/umon@clos-8banks-32t", cg(clos32, "umon")});
  bench::BenchOptions clos64 = clos32;
  clos64.threads = 64;
  clos64.clos_mapper = core::ClosMapperKind::kMinMax;
  arms.push_back({"cg/model@clos-8banks-64t", cg(clos64, "model")});
  arms.push_back({"cg/model@clos-4banks-8t", cg(clos, "model")});
  return arms;
}

struct ArmDigests {
  std::vector<std::string> intervals;
  std::string stats;
};

ArmDigests digests_of(const sim::ExperimentResult& result) {
  ArmDigests d;
  for (const sim::IntervalRecord& record : result.intervals) {
    Fnv64 h;
    h.add(record.index);
    h.add(record.threads.size());
    for (const sim::ThreadIntervalRecord& t : record.threads) {
      h.add(t.instructions);
      h.add(t.exec_cycles);
      h.add(t.stall_cycles);
      h.add(t.l1_misses);
      h.add(t.l2_accesses);
      h.add(t.l2_hits);
      h.add(t.l2_misses);
      h.add(t.ways);
    }
    d.intervals.push_back(hex(h.value()));
  }
  Fnv64 h;
  h.add(result.outcome.total_cycles);
  for (ThreadId t = 0; t < result.l2_stats.num_threads(); ++t) {
    const mem::ThreadCacheCounters& c = result.l2_stats.thread(t);
    h.add(c.accesses);
    h.add(c.hits);
    h.add(c.misses);
    h.add(c.inter_thread_hits);
    h.add(c.inter_thread_evictions_caused);
    h.add(c.inter_thread_evictions_suffered);
    h.add(c.intra_thread_evictions);
    h.add(c.writebacks);
  }
  d.stats = hex(h.value());
  return d;
}

std::string golden_path() {
  return std::string(CAPART_GOLDEN_DIR) + "/digests.json";
}

void write_golden(const std::vector<Arm>& arms,
                  const std::vector<ArmDigests>& digests) {
  std::ofstream out(golden_path());
  ASSERT_TRUE(out.is_open()) << golden_path();
  out << "{\n  \"arms\": {";
  for (std::size_t a = 0; a < arms.size(); ++a) {
    out << (a == 0 ? "\n" : ",\n") << "    \"" << arms[a].name
        << "\": {\"stats\": \"" << digests[a].stats << "\", \"intervals\": [";
    for (std::size_t i = 0; i < digests[a].intervals.size(); ++i) {
      out << (i == 0 ? "\"" : ", \"") << digests[a].intervals[i] << '"';
    }
    out << "]}";
  }
  out << "\n  }\n}\n";
}

obs::JsonValue read_golden() {
  std::ifstream in(golden_path());
  EXPECT_TRUE(in.is_open())
      << golden_path() << " missing; regenerate with CAPART_REGEN_GOLDEN=1";
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  std::optional<obs::JsonValue> doc = obs::parse_json(text.str(), &error);
  EXPECT_TRUE(doc.has_value() && doc->find("arms") != nullptr) << error;
  return doc.value_or(obs::JsonValue{});
}

void expect_matches_golden(const obs::JsonValue& golden, const Arm& arm,
                           const ArmDigests& got, const char* path) {
  const obs::JsonValue* arms = golden.find("arms");
  const obs::JsonValue* want = arms == nullptr ? nullptr
                                               : arms->find(arm.name);
  ASSERT_NE(want, nullptr) << arm.name << " is not in " << golden_path();
  const obs::JsonValue* intervals = want->find("intervals");
  ASSERT_TRUE(intervals != nullptr && intervals->is_array()) << arm.name;
  for (std::size_t i = 0;
       i < std::max(got.intervals.size(), intervals->array.size()); ++i) {
    const std::string_view expected =
        i < intervals->array.size() ? intervals->array[i].as_string() : "";
    const std::string actual = i < got.intervals.size() ? got.intervals[i] : "";
    ASSERT_EQ(actual, expected)
        << arm.name << " (" << path << "): first differing interval is " << i;
  }
  const obs::JsonValue* stats = want->find("stats");
  ASSERT_NE(stats, nullptr) << arm.name;
  EXPECT_EQ(got.stats, stats->as_string())
      << arm.name << " (" << path
      << "): every interval matches but the run's L2 statistics differ";
}

TEST(GoldenDigests, StreamedPath) {
  const std::vector<Arm> arms = golden_arms();
  std::vector<ArmDigests> digests;
  for (const Arm& arm : arms) {
    digests.push_back(digests_of(sim::run_experiment(arm.config)));
  }
  if (std::getenv("CAPART_REGEN_GOLDEN") != nullptr) {
    write_golden(arms, digests);
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  const obs::JsonValue golden = read_golden();
  ASSERT_EQ(golden.find("arms")->object.size(), arms.size());
  for (std::size_t a = 0; a < arms.size(); ++a) {
    expect_matches_golden(golden, arms[a], digests[a], "streamed");
  }
}

/// Every pinned arm through `run`, checked against the committed digests
/// under the name `path`.
template <class Run>
void expect_path_matches_golden(const char* path, Run&& run) {
  if (std::getenv("CAPART_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regeneration uses the streamed path";
  }
  const obs::JsonValue golden = read_golden();
  for (const Arm& arm : golden_arms()) {
    expect_matches_golden(golden, arm, digests_of(run(arm.config)), path);
  }
}

/// Streamed runs started while one is alive resolve every chunk on the
/// driver's thread, with no ring and no helper.
struct InlineResolveOnly {
  InlineResolveOnly() { sim::force_inline_resolve_for_testing(true); }
  ~InlineResolveOnly() { sim::force_inline_resolve_for_testing(false); }
};

TEST(GoldenDigests, InlineOnlyStreamedPath) {
  const InlineResolveOnly inline_only;
  expect_path_matches_golden("inline-only streamed",
                             [](const sim::ExperimentConfig& config) {
                               return sim::run_experiment(config);
                             });
}

TEST(GoldenDigests, UnresolvedPath) {
  expect_path_matches_golden(
      "unresolved", [](const sim::ExperimentConfig& config) {
        const trace::BenchmarkProfile profile =
            trace::make_profile(config.profile, config.num_threads);
        const Rng root(config.seed);
        std::vector<std::unique_ptr<trace::OpSource>> generators;
        for (ThreadId t = 0; t < config.num_threads; ++t) {
          generators.push_back(std::make_unique<trace::PhasedGenerator>(
              trace::PhaseSchedule(profile.threads[t].phases), root.fork(t),
              sim::private_region_base(t), sim::shared_region_base()));
        }
        sim::PreparedExperiment prepared(config, std::move(generators));
        while (prepared.advance_interval()) {
        }
        return prepared.finalize();
      });
}

TEST(GoldenDigests, ColdSpool) {
  static std::atomic<unsigned> serial{0};
  expect_path_matches_golden("cold spool", [](sim::ExperimentConfig config) {
    // A directory of its own per arm, so every arm resolves a cold spool.
    const std::string dir = ::testing::TempDir() + "/golden_spool." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(serial++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    config.trace_spool_dir = dir;
    sim::ExperimentResult result = sim::run_experiment(config);
    std::filesystem::remove_all(dir);
    return result;
  });
}

// Every pinned arm from a warm spool written by a resolve this run did not
// make: a cold resolve into one fresh directory, its capart_*.trc files
// copied into a second directory this process has never mapped, and the arm
// run from the copy, which must resolve no stream.
TEST(GoldenDigests, WarmSpool) {
  static std::atomic<unsigned> serial{0};
  expect_path_matches_golden("warm spool", [](sim::ExperimentConfig config) {
    const std::string stem = ::testing::TempDir() + "/golden_warm." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(serial++);
    const std::string cold = stem + ".cold";
    const std::string warm = stem + ".warm";
    for (const std::string& dir : {cold, warm}) {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
    }
    config.trace_spool_dir = cold;
    const Instructions per_thread = config.interval_instructions *
                                    config.num_intervals / config.num_threads;
    EXPECT_EQ(sim::spool_sources(config, per_thread).size(),
              config.num_threads);
    std::size_t copied = 0;
    for (const auto& entry : std::filesystem::directory_iterator(cold)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("capart_") && name.ends_with(".trc")) {
        std::filesystem::copy_file(entry.path(), warm + "/" + name);
        ++copied;
      }
    }
    EXPECT_EQ(copied, config.num_threads);
    config.trace_spool_dir = warm;
    const std::uint64_t resolved = sim::spool_streams_resolved_for_testing();
    sim::ExperimentResult result = sim::run_experiment(config);
    EXPECT_EQ(sim::spool_streams_resolved_for_testing(), resolved)
        << "the warm spool resolved streams of its own";
    std::filesystem::remove_all(cold);
    std::filesystem::remove_all(warm);
    return result;
  });
}

// Every pinned arm as one spec on four batch workers, all of them spooling
// into one fresh directory: arms with the same spool identity (profile,
// seed, per-thread work, private geometry) wait on each other's in-flight
// entries rather than each resolving its own.
TEST(GoldenDigests, BatchOfFourSharedColdSpool) {
  if (std::getenv("CAPART_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regeneration uses the streamed path";
  }
  const std::string dir = ::testing::TempDir() + "/golden_batch_spool." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<Arm> arms = golden_arms();
  sim::ExperimentSpec spec;
  spec.name = "golden";
  for (const Arm& arm : arms) {
    sim::ExperimentConfig config = arm.config;
    config.trace_spool_dir = dir;
    spec.add(arm.name, std::move(config));
  }
  const sim::BatchResult batch = sim::BatchRunner(4).run(spec);
  std::filesystem::remove_all(dir);
  const obs::JsonValue golden = read_golden();
  ASSERT_EQ(batch.arms.size(), arms.size());
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const sim::ArmOutcome& outcome = batch.arms[a];
    ASSERT_TRUE(outcome.ok()) << outcome.name << ": " << outcome.error;
    expect_matches_golden(golden, arms[a], digests_of(outcome.result),
                          "batch of four, shared cold spool");
  }
}

}  // namespace
}  // namespace capart
