// Golden digests: the byte-identity contract as a committed test. Every
// fig 19-21 arm (the nine profiles x model, static_equal, shared and
// throughput) plus cg under tree-PLRU, SRRIP, flush-reconfiguration, page
// coloring, private slices, and CLOS masks on a 4-bank L2 at 8 threads and
// on an 8-bank L2 at 32 (UMON) and 64 threads runs at reduced length, and
// the FNV-1a64 digest of each interval record (and of the run's
// shared-cache statistics) must equal the one committed in
// tests/golden/digests.json. Each arm is recomputed twice: on the default
// streamed path, and from a cold spool in a fresh directory. A mismatch
// names the arm and its first differing interval.
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
#include "src/obs/json.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/benchmarks.hpp"

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

TEST(GoldenDigests, ColdSpool) {
  if (std::getenv("CAPART_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regeneration uses the streamed path";
  }
  const obs::JsonValue golden = read_golden();
  static std::atomic<unsigned> serial{0};
  for (Arm& arm : golden_arms()) {
    // A directory of its own per arm, so every arm resolves a cold spool.
    const std::string dir = ::testing::TempDir() + "/golden_spool." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(serial++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    arm.config.trace_spool_dir = dir;
    const ArmDigests got = digests_of(sim::run_experiment(arm.config));
    std::filesystem::remove_all(dir);
    expect_matches_golden(golden, arm, got, "cold spool");
  }
}

}  // namespace
}  // namespace capart
