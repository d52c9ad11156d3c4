// Replacement-policy tests for the unified cache core: the LruList recency
// order (touch, depth, LRU end, constrained walk), policy-specific victim
// behavior, and the cross-policy
// contracts the partitioning mechanism relies on — under eviction control
// every policy must converge ownership to the targets, and target validation
// must reject malformed inputs identically no matter which policy runs the
// sets.
#include "src/mem/replacement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/cache_core.hpp"

namespace capart::mem {
namespace {

Addr blk(std::uint64_t b) { return b * 64; }

TEST(ReplacementKindTest, NamesRoundTrip) {
  for (const ReplacementKind kind : kAllReplacementKinds) {
    ReplacementKind parsed = ReplacementKind::kTrueLru;
    ASSERT_TRUE(parse_replacement(to_string(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  ReplacementKind out = ReplacementKind::kTrueLru;
  EXPECT_FALSE(parse_replacement("random", out));
  EXPECT_FALSE(parse_replacement("", out));
}

TEST(LruListTest, TouchMovesToMruAndDepthTracks) {
  LruList list(1, 4);
  // Initial order is by way index: way 0 is MRU, way 3 is LRU.
  for (std::uint32_t w = 0; w < 4; ++w) EXPECT_EQ(list.depth_of(0, w), w);
  EXPECT_EQ(list.lru_way(0), 3u);
  list.touch(0, 3);
  EXPECT_EQ(list.depth_of(0, 3), 0u);
  EXPECT_EQ(list.depth_of(0, 0), 1u);
  EXPECT_EQ(list.lru_way(0), 2u);  // way 2 is now LRU
  EXPECT_EQ(list.depth_of(0, 2), 3u);
  list.touch(0, 1);
  EXPECT_EQ(list.depth_of(0, 1), 0u);
  EXPECT_EQ(list.depth_of(0, 3), 1u);
  list.touch(0, 1);  // already MRU: nothing moves
  EXPECT_EQ(list.depth_of(0, 1), 0u);
  EXPECT_EQ(list.lru_way(0), 2u);
}

TEST(LruListTest, FindFromLruScansInRecencyOrder) {
  LruList list(1, 4);
  list.touch(0, 2);  // recency MRU->LRU: 2 0 1 3
  const auto only_odd = [](std::uint32_t way) { return way % 2 == 1; };
  EXPECT_EQ(list.find_from_lru(0, only_odd), 3u);
  const auto only_two = [](std::uint32_t way) { return way == 2; };
  EXPECT_EQ(list.find_from_lru(0, only_two), 2u);
  const auto below_two = [](std::uint32_t way) { return way < 2; };
  EXPECT_EQ(list.find_from_lru(0, below_two), 1u);
  const auto none = [](std::uint32_t) { return false; };
  EXPECT_EQ(list.find_from_lru(0, none), list.ways());
}

TEST(LruListTest, MatchesARecencyVectorUnderRandomTouches) {
  // 64 ways, the shared L2's and its shadow directories' associativity: a
  // plain MRU-first vector of ways is the model. Sets are independent, and
  // reset restores the initial order.
  constexpr std::uint32_t kSets = 3;
  constexpr std::uint32_t kWays = 64;
  LruList list(kSets, kWays);
  std::vector<std::vector<std::uint32_t>> model(kSets);
  for (auto& order : model) {
    for (std::uint32_t w = 0; w < kWays; ++w) order.push_back(w);
  }
  Rng rng(2010);
  for (int i = 0; i < 20'000; ++i) {
    const auto set = static_cast<std::uint32_t>(rng.below(kSets));
    const auto way = static_cast<std::uint32_t>(rng.below(kWays));
    std::vector<std::uint32_t>& order = model[set];
    const auto pos = std::find(order.begin(), order.end(), way);
    ASSERT_EQ(list.depth_of(set, way),
              static_cast<std::uint32_t>(pos - order.begin()))
        << "touch " << i;
    order.erase(pos);
    order.insert(order.begin(), way);
    list.touch(set, way);
    ASSERT_EQ(list.lru_way(set), order.back()) << "touch " << i;
    const auto even = [](std::uint32_t w) { return w % 2 == 0; };
    const auto last_even = std::find_if(order.rbegin(), order.rend(), even);
    ASSERT_EQ(list.find_from_lru(set, even), *last_even) << "touch " << i;
  }
  list.reset();
  for (std::uint32_t s = 0; s < kSets; ++s) {
    EXPECT_EQ(list.lru_way(s), kWays - 1);
    for (std::uint32_t w = 0; w < kWays; ++w) EXPECT_EQ(list.depth_of(s, w), w);
  }
}

// Policy-level victim checks through the ReplacementPolicy interface, with
// everything valid (every tag != kInvalidTag) and unrestricted scope.
ReplacementPolicy::Eligible any_valid(const std::vector<std::uint64_t>& tags,
                                      const std::vector<ThreadId>& owner) {
  return {tags.data(), owner.data(),
          ReplacementPolicy::Eligible::Scope::kAnyValid, 0};
}

TEST(ReplacementPolicyTest, LruEvictsLeastRecentlyTouched) {
  auto repl = make_replacement(ReplacementKind::kTrueLru, 1, 4);
  const std::vector<std::uint64_t> valid(4, 100);
  const std::vector<ThreadId> owner(4, 0);
  for (std::uint32_t w = 0; w < 4; ++w) repl->on_fill(0, w);
  repl->on_hit(0, 0);  // way 0 becomes MRU; way 1 is now LRU
  EXPECT_EQ(repl->victim(0, any_valid(valid, owner)), 1u);
}

TEST(ReplacementPolicyTest, TreePlruVictimAvoidsRecentPath) {
  auto repl = make_replacement(ReplacementKind::kTreePlru, 1, 4);
  const std::vector<std::uint64_t> valid(4, 100);
  const std::vector<ThreadId> owner(4, 0);
  for (std::uint32_t w = 0; w < 4; ++w) repl->on_fill(0, w);
  // The victim never equals the way just touched.
  for (std::uint32_t w = 0; w < 4; ++w) {
    repl->on_hit(0, w);
    EXPECT_NE(repl->victim(0, any_valid(valid, owner)), w);
  }
}

TEST(ReplacementPolicyTest, TreePlruRespectsEligibility) {
  auto repl = make_replacement(ReplacementKind::kTreePlru, 1, 8);
  std::vector<std::uint64_t> valid(8, 100);
  std::vector<ThreadId> owner(8, 0);
  owner[5] = 1;
  for (std::uint32_t w = 0; w < 8; ++w) repl->on_fill(0, w);
  // Only thread 1's single line is eligible: the walk must detour to it.
  const ReplacementPolicy::Eligible only_foreign = {
      valid.data(), owner.data(),
      ReplacementPolicy::Eligible::Scope::kOwnedBy, 1};
  EXPECT_EQ(repl->victim(0, only_foreign), 5u);
}

TEST(ReplacementPolicyTest, SrripEvictsDistantFirstAndAges) {
  auto repl = make_replacement(ReplacementKind::kSrrip, 1, 4);
  const std::vector<std::uint64_t> valid(4, 100);
  const std::vector<ThreadId> owner(4, 0);
  for (std::uint32_t w = 0; w < 4; ++w) repl->on_fill(0, w);
  repl->on_hit(0, 2);  // way 2 -> RRPV 0, others stay at insertion RRPV
  // No line is at max RRPV yet; aging bumps everyone until the first
  // eligible distant line appears — the lowest-index non-hit way.
  EXPECT_EQ(repl->victim(0, any_valid(valid, owner)), 0u);
}

// --- Cross-policy contracts -------------------------------------------------

class ReplacementPolicyParam
    : public ::testing::TestWithParam<ReplacementKind> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementPolicyParam,
                         ::testing::ValuesIn(kAllReplacementKinds),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// Under kEvictionControl a below-target thread always takes a way from an
// over-target thread on a miss, so each thread's per-set ownership reaches
// its target within `ways` misses to that set — for every policy, because
// enforcement picks the victim scope and the policy only ranks lines inside
// it.
TEST_P(ReplacementPolicyParam, OwnershipConvergesWithinWaysMisses) {
  const CacheGeometry g = {
      .sets = 4, .ways = 8, .line_bytes = 64, .repl = GetParam()};
  CacheCore c(g, 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{6, 2});
  // Thread 0 floods every set far past its target.
  for (std::uint64_t b = 0; b < 64; ++b) c.access(0, blk(b), AccessType::kRead);
  for (std::uint32_t s = 0; s < g.sets; ++s) {
    ASSERT_EQ(c.owned_in_set(s, 0), 8u) << to_string(GetParam());
  }
  // Two distinct-block misses per set suffice for thread 1 to reach its
  // target of 2 ways; the bound is exactly the target, not "eventually".
  for (std::uint64_t b = 0; b < 2 * g.sets; ++b) {
    c.access(1, blk(1'000 + b), AccessType::kRead);
  }
  for (std::uint32_t s = 0; s < g.sets; ++s) {
    EXPECT_EQ(c.owned_in_set(s, 0), 6u)
        << to_string(GetParam()) << " set " << s;
    EXPECT_EQ(c.owned_in_set(s, 1), 2u)
        << to_string(GetParam()) << " set " << s;
  }
  // Sustained mixed traffic never breaks the converged split.
  Rng rng(11);
  std::uint64_t next0 = 10'000, next1 = 20'000;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.chance(0.5)) {
      c.access(0, blk(next0++), AccessType::kRead);
    } else {
      c.access(1, blk(next1++), AccessType::kRead);
    }
  }
  for (std::uint32_t s = 0; s < g.sets; ++s) {
    EXPECT_EQ(c.owned_in_set(s, 0), 6u)
        << to_string(GetParam()) << " set " << s;
    EXPECT_EQ(c.owned_in_set(s, 1), 2u)
        << to_string(GetParam()) << " set " << s;
  }
}

// set_targets validation is enforcement-layer code: the failure messages
// must not depend on which replacement policy the core was built with.
TEST_P(ReplacementPolicyParam, TargetValidationIsPolicyIndependent) {
  const CacheGeometry g = {
      .sets = 1, .ways = 4, .line_bytes = 64, .repl = GetParam()};
  CacheCore c(g, 2, PartitionEnforcement::kWayEvictionControl);
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 1}),
               "way targets must sum to total ways");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 0}),
               "every thread must keep at least one way");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4}),
               "one way target per thread required");
  CacheCore u(g, 2, PartitionEnforcement::kNone);
  EXPECT_DEATH(u.set_targets(std::vector<std::uint32_t>{2, 2}),
               "set_targets is only meaningful with eviction control");
}

// Hit/miss accounting stays exact under every policy (policies reorder
// victims, never reclassify accesses), and a repeated block always hits.
TEST_P(ReplacementPolicyParam, StatsStayConsistentUnderRandomTraffic) {
  const CacheGeometry g = {
      .sets = 8, .ways = 4, .line_bytes = 64, .repl = GetParam()};
  CacheCore c(g, 2, PartitionEnforcement::kWayEvictionControl);
  Rng rng(5);
  for (int i = 0; i < 20'000; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(2));
    c.access(t, blk(rng.below(150)), AccessType::kRead);
  }
  for (ThreadId t = 0; t < 2; ++t) {
    const auto& s = c.stats().thread(t);
    EXPECT_EQ(s.hits + s.misses, s.accesses) << to_string(GetParam());
    EXPECT_GT(s.hits, 0u) << to_string(GetParam());
    EXPECT_GT(s.misses, 0u) << to_string(GetParam());
  }
  c.access(0, blk(777), AccessType::kRead);
  EXPECT_TRUE(c.access(0, blk(777), AccessType::kRead).hit)
      << to_string(GetParam());
}

// Flush-reconfigure must keep working under every policy: shrinking a
// thread's allocation flushes exactly its excess lines.
TEST_P(ReplacementPolicyParam, FlushReconfigureFlushesExcessLines) {
  const CacheGeometry g = {
      .sets = 1, .ways = 4, .line_bytes = 64, .repl = GetParam()};
  CacheCore c(g, 2, PartitionEnforcement::kWayFlushReconfigure);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.access(1, blk(10), AccessType::kRead);
  c.access(1, blk(11), AccessType::kRead);
  c.set_targets(std::vector<std::uint32_t>{1, 3});
  EXPECT_EQ(c.flushed_on_last_retarget(), 1u) << to_string(GetParam());
  EXPECT_EQ(c.owned_in_set(0, 0), 1u) << to_string(GetParam());
  // Thread 1's lines are never touched by thread 0's shrink.
  EXPECT_TRUE(c.contains(blk(10))) << to_string(GetParam());
  EXPECT_TRUE(c.contains(blk(11))) << to_string(GetParam());
}

}  // namespace
}  // namespace capart::mem
