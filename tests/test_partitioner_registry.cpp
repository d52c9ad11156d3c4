// The partitioner registry (src/core/partitioner_registry.hpp): lookup,
// aliasing and error behaviour; totality — every registered spelling
// survives the CLI-parse -> obs-manifest -> config-codec round trip
// byte-identically; and the behaviour of the three competitor policies the
// registry hosts (ucp-lookahead, lfoc-classing, reuse-aware).
#include "src/core/partitioner_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cache_class.hpp"
#include "src/core/lfoc_policy.hpp"
#include "src/core/reuse_aware_policy.hpp"
#include "src/core/ucp_policy.hpp"
#include "src/math/apportion.hpp"
#include "src/mem/utility_monitor.hpp"
#include "src/obs/config_json.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/events.hpp"
#include "src/sim/experiment.hpp"
#include "tests/expect_config_error.hpp"

namespace capart::core {
namespace {

TEST(PartitionerRegistry, HostsThePaperSchemeAndItsCompetitors) {
  const std::vector<std::string> names = registry().names();
  for (const char* expected :
       {"static-equal", "cpi-proportional", "model-based",
        "throughput-oriented", "time-shared", "fair-slowdown",
        "umon-critical-path", "ucp-lookahead", "lfoc-classing",
        "reuse-aware"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PartitionerRegistry, AliasesResolveToTheSameEntry) {
  const std::pair<const char*, const char*> aliases[] = {
      {"static", "static-equal"},     {"cpi", "cpi-proportional"},
      {"model", "model-based"},       {"throughput", "throughput-oriented"},
      {"timeshared", "time-shared"},  {"fair", "fair-slowdown"},
      {"umon", "umon-critical-path"}, {"ucp", "ucp-lookahead"},
      {"lfoc", "lfoc-classing"},      {"reuse", "reuse-aware"},
  };
  for (const auto& [alias, name] : aliases) {
    EXPECT_EQ(registry().find(alias), registry().find(name)) << alias;
    EXPECT_EQ(registry().canonical(alias), name);
  }
  EXPECT_EQ(registry().canonical("model-based"), "model-based");
  EXPECT_EQ(registry().canonical("none"), kNoPolicyName);
  EXPECT_EQ(registry().canonical("hyperdrive"), "");
  EXPECT_EQ(registry().find("hyperdrive"), nullptr);
}

TEST(PartitionerRegistry, MetadataDrivesTheExperimentWiring) {
  EXPECT_FALSE(registry().require("static-equal").dynamic);
  EXPECT_TRUE(registry().require("model-based").dynamic);
  for (const char* needs_umon :
       {"umon-critical-path", "ucp-lookahead", "lfoc-classing"}) {
    EXPECT_TRUE(registry().require(needs_umon).needs_utility_monitor)
        << needs_umon;
  }
  EXPECT_FALSE(registry().require("reuse-aware").needs_utility_monitor);
  EXPECT_FALSE(registry().require("model-based").needs_utility_monitor);
  for (const Partitioner* p : registry().describe()) {
    EXPECT_FALSE(p->summary.empty()) << p->name;
    EXPECT_TRUE(p->factory != nullptr) << p->name;
  }
  // Option schemas exist for the policies that consume PolicyOptions fields.
  EXPECT_FALSE(registry().require("model-based").options.empty());
  EXPECT_FALSE(registry().require("time-shared").options.empty());
  EXPECT_TRUE(registry().require("ucp-lookahead").options.empty());
}

TEST(PartitionerRegistry, RequireThrowsFieldPathErrorsListingTheRegistry) {
  EXPECT_CONFIG_ERROR(registry().require("hyperdrive"), "policy");
  EXPECT_CONFIG_ERROR(registry().require("hyperdrive"), "ucp-lookahead");
  EXPECT_CONFIG_ERROR(registry().require("hyperdrive", "apps.policy"),
                      "apps.policy");
  // make() validates the options before constructing anything.
  PolicyOptions bad;
  bad.ewma_alpha = 7.0;
  EXPECT_CONFIG_ERROR(registry().make("model-based", bad), "ewma_alpha");
}

// ---------------------------------------------------------------------------
// Totality: every registered spelling (canonical name or alias) parses the
// way the CLI parses it, serializes into the obs manifest, and round-trips
// the config codec back to identical bytes.
// ---------------------------------------------------------------------------

TEST(PartitionerRegistry, EverySpellingRoundTripsCliManifestServe) {
  std::vector<std::string> spellings = registry().names();
  for (const Partitioner* p : registry().describe()) {
    for (const std::string& alias : p->aliases) spellings.push_back(alias);
  }
  spellings.push_back(std::string(kNoPolicyName));

  for (const std::string& spelling : spellings) {
    // CLI parse: capart_sim --policy resolves spellings via canonical().
    const std::string canonical(registry().canonical(spelling));
    ASSERT_FALSE(canonical.empty()) << spelling;

    // The manifest event every run publishes embeds the config.
    obs::ManifestEvent event;
    event.run = "arm";
    event.config.policy = canonical;
    const std::string line = obs::to_jsonl(event);
    const std::optional<obs::JsonValue> json = obs::parse_json(line);
    ASSERT_TRUE(json.has_value()) << spelling;
    obs::JsonValue config_json = *json;
    std::erase_if(config_json.object, [](const auto& member) {
      return member.first == "type" || member.first == "run";
    });

    // Config codec: manifest resubmission preserves the spelling and
    // re-serializes to identical bytes.
    const sim::ExperimentConfig decoded =
        obs::config_from_json(config_json, "spec");
    EXPECT_EQ(decoded.policy, canonical) << spelling;
    EXPECT_EQ(obs::config_to_json(decoded),
              obs::config_to_json(event.config))
        << spelling;
  }
}

// ---------------------------------------------------------------------------
// The competitor policies, driven with hand-built records and shadow-tag
// traffic whose curve shapes are known.
// ---------------------------------------------------------------------------

/// A monitor over a 4-set, 16-way shadow directory with every set sampled.
mem::UtilityMonitor make_umon(ThreadId threads) {
  return mem::UtilityMonitor({.sets = 4, .ways = 16, .line_bytes = 64},
                             threads, /*sampling_shift=*/0);
}

/// Thread `t` re-walks a working set of `blocks` cache lines `rounds` times:
/// its miss curve drops to the cold misses once the allocation covers
/// blocks/sets ways per set.
void feed_working_set(mem::UtilityMonitor& umon, ThreadId t,
                      std::uint32_t blocks, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (std::uint32_t b = 0; b < blocks; ++b) {
      umon.observe(t, static_cast<Addr>(b) * 64);
    }
  }
}

/// Thread `t` streams `count` never-reused lines: its curve is flat.
void feed_stream(mem::UtilityMonitor& umon, ThreadId t, std::uint32_t count) {
  for (std::uint32_t b = 0; b < count; ++b) {
    umon.observe(t, (static_cast<Addr>(b) + (1u << 20)) * 64);
  }
}

sim::IntervalRecord record_with_misses(
    const std::vector<std::uint64_t>& misses, std::uint32_t ways_each) {
  sim::IntervalRecord r;
  r.index = 1;
  for (const std::uint64_t m : misses) {
    sim::ThreadIntervalRecord t;
    t.instructions = 10'000;
    t.exec_cycles = 30'000;
    t.l2_accesses = m * 2;
    t.l2_misses = m;
    t.l2_hits = t.l2_accesses - m;
    t.ways = ways_each;
    r.threads.push_back(t);
  }
  return r;
}

TEST(UcpLookaheadPolicy, LookaheadCoversTheKneeOfTheReuseCurve) {
  auto umon = make_umon(2);
  // Thread 0 re-walks 32 lines (8 per set): zero marginal utility until the
  // eighth way, then the whole working set fits — exactly the non-convex
  // knee the lookahead exists for. Thread 1 streams: ways never help it.
  feed_working_set(umon, 0, 32, 50);
  feed_stream(umon, 1, 1'600);
  UcpLookaheadPolicy p{PolicyOptions{}};
  const PartitionContext ctx{.total_ways = 12, .num_threads = 2,
                             .utility_monitor = &umon};
  const auto alloc = p.repartition(record_with_misses({500, 500}, 6), ctx);
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_EQ(alloc[0] + alloc[1], 12u);
  EXPECT_GE(alloc[0], 8u) << "lookahead must cover the reused working set";
  EXPECT_GT(alloc[0], alloc[1]);
}

TEST(UcpLookaheadPolicy, FlatCurvesFillTowardEqual) {
  auto umon = make_umon(2);  // no traffic: both curves flat at zero
  UcpLookaheadPolicy p{PolicyOptions{}};
  const PartitionContext ctx{.total_ways = 16, .num_threads = 2,
                             .utility_monitor = &umon};
  const auto alloc = p.repartition(record_with_misses({100, 100}, 8), ctx);
  EXPECT_EQ(alloc, (std::vector<std::uint32_t>{8, 8}));
}

TEST(LfocPolicy, ClassifiesLightStreamingAndSensitive) {
  auto umon = make_umon(3);
  feed_stream(umon, 1, 1'600);        // flat curve
  feed_working_set(umon, 2, 32, 50);  // steep curve
  LfocPolicy p{PolicyOptions{}};
  const PartitionContext ctx{.total_ways = 16, .num_threads = 3,
                             .utility_monitor = &umon};
  // Thread 0 barely misses (MPKI 0.1 < 0.5): light regardless of curve.
  const auto alloc = p.repartition(record_with_misses({1, 800, 800}, 5), ctx);
  const auto classes = p.cache_classes();
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0], CacheClass::kLight);
  EXPECT_EQ(classes[1], CacheClass::kStreaming);
  EXPECT_EQ(classes[2], CacheClass::kCacheSensitive);
  // Light holds the floor, streaming its two-way pen, sensitive the rest.
  EXPECT_EQ(alloc, (std::vector<std::uint32_t>{1, 2, 13}));
}

TEST(LfocPolicy, AllStreamingFallsBackToEqualButKeepsClasses) {
  auto umon = make_umon(2);
  feed_stream(umon, 0, 1'600);
  feed_stream(umon, 1, 1'600);
  LfocPolicy p{PolicyOptions{}};
  const PartitionContext ctx{.total_ways = 16, .num_threads = 2,
                             .utility_monitor = &umon};
  const auto alloc = p.repartition(record_with_misses({800, 800}, 8), ctx);
  EXPECT_EQ(alloc, (std::vector<std::uint32_t>{8, 8}));
  const auto classes = p.cache_classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], CacheClass::kStreaming);
  EXPECT_EQ(classes[1], CacheClass::kStreaming);
}

TEST(ReuseAwarePolicy, WithoutAProfileIsMissProportional) {
  ReuseAwarePolicy p{PolicyOptions{}};
  const PartitionContext ctx{.total_ways = 16, .num_threads = 4};
  const auto alloc =
      p.repartition(record_with_misses({800, 400, 200, 200}, 4), ctx);
  const std::vector<double> demand = {800.0, 400.0, 200.0, 200.0};
  EXPECT_EQ(alloc, math::apportion(demand, 16, 1));
}

TEST(ReuseAwarePolicy, HostsTheSharedRegionWithTheDominantSharer) {
  ReuseAwarePolicy p{PolicyOptions{}};
  // Thread 0 directs most traffic into a 1024-block shared region: with 256
  // sets that footprint costs ceil(1024/256) = 4 ways, hosted on top of
  // thread 0's private share.
  const std::vector<ThreadSharing> sharing = {
      {.share_fraction = 0.8, .shared_region_blocks = 1024},
      {.share_fraction = 0.1, .shared_region_blocks = 1024},
      {.share_fraction = 0.1, .shared_region_blocks = 1024},
      {.share_fraction = 0.1, .shared_region_blocks = 1024},
  };
  const PartitionContext ctx{.total_ways = 32, .num_threads = 4,
                             .l2_sets = 256, .sharing = sharing};
  const auto alloc =
      p.repartition(record_with_misses({500, 500, 500, 500}, 8), ctx);
  std::vector<double> private_demand;
  for (const ThreadSharing& s : sharing) {
    private_demand.push_back(500.0 * (1.0 - s.share_fraction));
  }
  auto expected = math::apportion(private_demand, 32 - 4, 1);
  expected[0] += 4;
  EXPECT_EQ(alloc, expected);
  EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0u), 32u);
}

TEST(ReuseAwarePolicy, TinyCacheFallsBackToMissProportional) {
  ReuseAwarePolicy p{PolicyOptions{}};
  const std::vector<ThreadSharing> sharing = {
      {.share_fraction = 0.5, .shared_region_blocks = 100'000},
      {.share_fraction = 0.5, .shared_region_blocks = 100'000},
      {.share_fraction = 0.5, .shared_region_blocks = 100'000},
  };
  // The footprint wants far more than the cache holds; with no room for a
  // host partition plus one way per thread, the policy degrades gracefully.
  const PartitionContext ctx{.total_ways = 3, .num_threads = 3,
                             .l2_sets = 16, .sharing = sharing};
  const auto alloc = p.repartition(record_with_misses({10, 10, 10}, 1), ctx);
  EXPECT_EQ(alloc, (std::vector<std::uint32_t>{1, 1, 1}));
}

}  // namespace
}  // namespace capart::core
