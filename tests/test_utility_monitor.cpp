// Tests for the shadow-tag utility monitor (the Suh-style monitoring
// hardware extension; refs [28]/[29] of the paper).
#include "src/mem/utility_monitor.hpp"

#include <gtest/gtest.h>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

namespace capart::mem {
namespace {

// Every set sampled, tiny geometry: 2 sets x 4 ways.
CacheGeometry tiny() { return {.sets = 2, .ways = 4, .line_bytes = 64}; }

/// Address of block b (set = b % 2 under `tiny`).
Addr blk(std::uint64_t b) { return b * 64; }

TEST(UtilityMonitor, ColdAccessesAreMisses) {
  UtilityMonitor m(tiny(), 1, /*sampling_shift=*/0);
  m.observe(0, blk(0));
  m.observe(0, blk(2));
  EXPECT_EQ(m.sampled_accesses(0), 2u);
  EXPECT_EQ(m.sampled_misses(0), 2u);
}

TEST(UtilityMonitor, HitDepthIsTheLruPosition) {
  UtilityMonitor m(tiny(), 1, 0);
  // Touch blocks 0, 2, 4, 6 (all set 0), then re-touch 0: it is the least
  // recently used of four lines, stack position 3.
  for (std::uint64_t b : {0ull, 2ull, 4ull, 6ull}) m.observe(0, blk(b));
  m.observe(0, blk(0));
  EXPECT_EQ(m.hits_at_depth(0, 3), 1u);
  EXPECT_EQ(m.hits_at_depth(0, 0), 0u);
  // Re-touching 0 again: now it is the MRU, position 0.
  m.observe(0, blk(0));
  EXPECT_EQ(m.hits_at_depth(0, 0), 1u);
}

TEST(UtilityMonitor, PredictedMissesDecreaseWithWays) {
  UtilityMonitor m(tiny(), 1, 0);
  Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    m.observe(0, blk(rng.below(16)));  // 16 blocks over 2 sets of 4 ways
  }
  for (std::uint32_t w = 1; w < 4; ++w) {
    EXPECT_GE(m.predicted_misses(0, w), m.predicted_misses(0, w + 1));
  }
}

TEST(UtilityMonitor, FullWaysPredictionEqualsShadowMisses) {
  UtilityMonitor m(tiny(), 1, 0);
  Rng rng(6);
  for (int i = 0; i < 2'000; ++i) m.observe(0, blk(rng.below(12)));
  EXPECT_DOUBLE_EQ(m.predicted_misses(0, 4),
                   static_cast<double>(m.sampled_misses(0)));
}

TEST(UtilityMonitor, OneWayPredictionCountsAllNonMruHits) {
  UtilityMonitor m(tiny(), 1, 0);
  Rng rng(7);
  for (int i = 0; i < 2'000; ++i) m.observe(0, blk(rng.below(12)));
  double expected = static_cast<double>(m.sampled_misses(0));
  for (std::uint32_t d = 1; d < 4; ++d) {
    expected += static_cast<double>(m.hits_at_depth(0, d));
  }
  EXPECT_DOUBLE_EQ(m.predicted_misses(0, 1), expected);
}

TEST(UtilityMonitor, ThreadsAreIndependent) {
  UtilityMonitor m(tiny(), 2, 0);
  m.observe(0, blk(0));
  m.observe(1, blk(0));  // same block, own shadow directory: still a miss
  EXPECT_EQ(m.sampled_misses(0), 1u);
  EXPECT_EQ(m.sampled_misses(1), 1u);
  m.observe(1, blk(0));
  EXPECT_EQ(m.hits_at_depth(1, 0), 1u);
  EXPECT_EQ(m.hits_at_depth(0, 0), 0u);
}

TEST(UtilityMonitor, SamplingObservesOnlyAlignedSets) {
  // 8 sets, shift 2 -> sets 0 and 4 are sampled.
  UtilityMonitor m({.sets = 8, .ways = 2, .line_bytes = 64}, 1, 2);
  EXPECT_EQ(m.sampled_sets(), 2u);
  m.observe(0, blk(0));   // set 0: sampled
  m.observe(0, blk(1));   // set 1: not sampled
  m.observe(0, blk(4));   // set 4: sampled
  m.observe(0, blk(5));   // set 5: not sampled
  EXPECT_EQ(m.sampled_accesses(0), 2u);
}

TEST(UtilityMonitor, ScalingExtrapolatesSampledMisses) {
  UtilityMonitor m({.sets = 8, .ways = 2, .line_bytes = 64}, 1, 2);
  m.observe(0, blk(0));  // one sampled miss, scale = 8/2 = 4
  EXPECT_DOUBLE_EQ(m.predicted_misses(0, 2), 4.0);
}

TEST(UtilityMonitor, IntervalResetClearsCountersKeepsTags) {
  UtilityMonitor m(tiny(), 1, 0);
  m.observe(0, blk(0));
  m.reset_interval();
  EXPECT_EQ(m.sampled_accesses(0), 0u);
  EXPECT_EQ(m.sampled_misses(0), 0u);
  // The shadow tag survived: re-touching block 0 is a hit, not a miss.
  m.observe(0, blk(0));
  EXPECT_EQ(m.sampled_misses(0), 0u);
  EXPECT_EQ(m.hits_at_depth(0, 0), 1u);
}

TEST(UtilityMonitor, ShadowIsUnaffectedByPartitioningByConstruction) {
  // The monitor sees the thread's own reuse at full associativity: a
  // working set of exactly `ways` blocks per set never misses after warmup,
  // whatever the real cache's partition does.
  UtilityMonitor m(tiny(), 1, 0);
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t b : {0ull, 2ull, 4ull, 6ull}) m.observe(0, blk(b));
  }
  EXPECT_EQ(m.sampled_misses(0), 4u);  // compulsory only
}

TEST(UtilityMonitor, RejectsBadConfig) {
  EXPECT_DEATH(UtilityMonitor(tiny(), 0, 0), ">= 1 thread");
  EXPECT_DEATH(UtilityMonitor(tiny(), 1, 4), "no sets");
  UtilityMonitor m(tiny(), 1, 0);
  // The per-access thread bound is a debug-only check (CAPART_DCHECK): the
  // observe hot path does not re-validate its caller millions of times per
  // second in release builds.
  if constexpr (kDchecksEnabled) {
    EXPECT_DEATH(m.observe(2, 0), "out of range");
  }
  EXPECT_DEATH(m.predicted_misses(0, 0), "ways out of range");
  EXPECT_DEATH(m.predicted_misses(0, 5), "ways out of range");
}

/// Property: the measured miss curve from random traffic is always
/// monotonically non-increasing in ways and anchored by the identities
/// checked above.
class UmonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UmonProperty, MissCurveIsMonotone) {
  UtilityMonitor m({.sets = 16, .ways = 8, .line_bytes = 64}, 2, 1);
  Rng rng(GetParam());
  for (int i = 0; i < 20'000; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(2));
    m.observe(t, blk(rng.below(400)));
  }
  for (ThreadId t = 0; t < 2; ++t) {
    for (std::uint32_t w = 1; w < 8; ++w) {
      EXPECT_GE(m.predicted_misses(t, w), m.predicted_misses(t, w + 1));
    }
    EXPECT_DOUBLE_EQ(m.predicted_misses(t, 8),
                     static_cast<double>(m.sampled_misses(t)) * m.scale());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, UmonProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace capart::mem
