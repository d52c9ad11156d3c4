// Tests for the §V way-partitioning-by-eviction-control mechanism — the
// hardware substrate the whole paper rests on — on exact, hand-checked
// cases: CacheCore under eviction control, flush-reconfiguration and global
// replacement, and the shared L2 the simulator builds from it.
// tests/test_reference_cache.cpp checks the same rules on random traffic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/mem/banked_l2.hpp"
#include "src/mem/cache_core.hpp"

namespace capart::mem {
namespace {

// 1 set x 4 ways keeps victim choice fully observable.
CacheGeometry one_set() { return {.sets = 1, .ways = 4, .line_bytes = 64}; }

Addr blk(std::uint64_t b) { return b * 64; }

TEST(EvictionControl, HitAfterFill) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  EXPECT_FALSE(c.access(0, blk(1), AccessType::kRead).hit);
  EXPECT_TRUE(c.access(0, blk(1), AccessType::kRead).hit);
}

TEST(EvictionControl, InitialTargetsAreEqualSplit) {
  CacheCore c({.sets = 4, .ways = 64, .line_bytes = 64}, 4,
              PartitionEnforcement::kWayEvictionControl);
  const auto t = c.targets();
  EXPECT_EQ(t.size(), 4u);
  for (std::uint32_t w : t) EXPECT_EQ(w, 16u);
}

TEST(EvictionControl, BelowTargetThreadEvictsForeignLine) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  // Thread 0 fills all four ways.
  for (std::uint64_t b = 0; b < 4; ++b) c.access(0, blk(b), AccessType::kRead);
  EXPECT_EQ(c.owned_in_set(0, 0), 4u);
  // Thread 1 misses; it is below target (0 < 2), so it must evict one of
  // thread 0's lines — specifically the LRU one (block 0).
  const auto r = c.access(1, blk(10), AccessType::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.inter_thread_eviction);
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(1)));
  EXPECT_EQ(c.owned_in_set(0, 0), 3u);
  EXPECT_EQ(c.owned_in_set(0, 1), 1u);
}

TEST(EvictionControl, AtTargetThreadEvictsOwnLine) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  // Fill: thread 0 gets blocks 0,1; thread 1 gets 10,11. Both at target.
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.access(1, blk(10), AccessType::kRead);
  c.access(1, blk(11), AccessType::kRead);
  // Thread 0 misses at target: must evict its own LRU (block 0), leaving
  // thread 1's lines untouched.
  const auto r = c.access(0, blk(2), AccessType::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.inter_thread_eviction);
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(10)));
  EXPECT_TRUE(c.contains(blk(11)));
  EXPECT_EQ(c.owned_in_set(0, 0), 2u);
  EXPECT_EQ(c.owned_in_set(0, 1), 2u);
}

TEST(EvictionControl, HitsAreUnrestrictedAcrossPartitions) {
  // Constructive sharing (§IV-A2): thread 1 may hit on thread 0's line even
  // when thread 1 holds zero ways of its own.
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{3, 1});
  c.access(0, blk(5), AccessType::kRead);
  const auto r = c.access(1, blk(5), AccessType::kRead);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.inter_thread_hit);
  EXPECT_EQ(c.stats().thread(1).inter_thread_hits, 1u);
  // Ownership does not change on a hit.
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
  EXPECT_EQ(c.owned_in_set(0, 1), 0u);
}

TEST(EvictionControl, PartitionConvergesTowardTargets) {
  // Under sustained misses from both threads the per-set ownership converges
  // to the target split, gradually, through replacements (§V: no flush).
  CacheCore c({.sets = 4, .ways = 8, .line_bytes = 64}, 2,
              PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{6, 2});
  Rng rng(1);
  std::uint64_t next0 = 0, next1 = 1'000'000;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.chance(0.5)) {
      c.access(0, blk(next0++), AccessType::kRead);
    } else {
      c.access(1, blk(next1++), AccessType::kRead);
    }
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(c.owned_in_set(s, 0), 6u) << "set " << s;
    EXPECT_EQ(c.owned_in_set(s, 1), 2u) << "set " << s;
  }
  EXPECT_EQ(c.owned_total(0), 24u);
  EXPECT_EQ(c.owned_total(1), 8u);
}

TEST(EvictionControl, RetargetingMovesOwnershipGradually) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.access(1, blk(10), AccessType::kRead);
  c.access(1, blk(11), AccessType::kRead);
  // Shrink thread 0 to one way. Nothing moves yet (no reconfiguration).
  c.set_targets(std::vector<std::uint32_t>{1, 3});
  EXPECT_EQ(c.owned_in_set(0, 0), 2u);
  // Thread 1's next miss takes a way from thread 0.
  c.access(1, blk(12), AccessType::kRead);
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
  EXPECT_EQ(c.owned_in_set(0, 1), 3u);
  // Thread 0's next miss replaces its own single line (at target).
  c.access(0, blk(2), AccessType::kRead);
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
}

TEST(EvictionControl, UnpartitionedModeIsGlobalLru) {
  // Against a plain LRU reference: identical hit/miss stream.
  const CacheGeometry g = {.sets = 8, .ways = 4, .line_bytes = 64};
  CacheCore c(g, 2, PartitionEnforcement::kNone);
  CacheCore ref(g, 1, PartitionEnforcement::kNone);
  Rng rng(3);
  for (int i = 0; i < 20'000; ++i) {
    const Addr a = blk(rng.below(200));
    const auto t = static_cast<ThreadId>(rng.below(2));
    EXPECT_EQ(c.access(t, a, AccessType::kRead).hit,
              ref.access(0, a, AccessType::kRead).hit)
        << "diverged at access " << i;
  }
}

TEST(EvictionControl, DestructiveEvictionAttribution) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  for (std::uint64_t b = 0; b < 4; ++b) c.access(0, blk(b), AccessType::kRead);
  c.access(1, blk(20), AccessType::kRead);  // evicts thread 0's LRU line
  EXPECT_EQ(c.stats().thread(1).inter_thread_evictions_caused, 1u);
  EXPECT_EQ(c.stats().thread(0).inter_thread_evictions_suffered, 1u);
  EXPECT_EQ(c.stats().thread(1).intra_thread_evictions, 0u);
}

TEST(EvictionControl, IntraThreadEvictionAttribution) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  for (std::uint64_t b = 0; b < 5; ++b) c.access(0, blk(b), AccessType::kRead);
  EXPECT_EQ(c.stats().thread(0).intra_thread_evictions, 1u);
  EXPECT_EQ(c.stats().thread(0).inter_thread_evictions_caused, 0u);
}

TEST(EvictionControl, LastAccessorGovernsInteraction) {
  // Thread 0 inserts, thread 1 touches (constructive), thread 0 touching
  // again is another inter-thread interaction even though it owns the line.
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.access(0, blk(7), AccessType::kRead);
  EXPECT_TRUE(c.access(1, blk(7), AccessType::kRead).inter_thread_hit);
  EXPECT_TRUE(c.access(0, blk(7), AccessType::kRead).inter_thread_hit);
  EXPECT_FALSE(c.access(0, blk(7), AccessType::kRead).inter_thread_hit);
}

TEST(EvictionControl, FlushReconfigureRemovesWaysImmediately) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayFlushReconfigure);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.access(1, blk(10), AccessType::kRead);
  c.access(1, blk(11), AccessType::kRead);
  // Shrink thread 0 from 2 ways to 1: its LRU line (block 0) is flushed
  // immediately, the line within the kept way (block 1) survives, and
  // thread 1's lines (growing) are untouched.
  c.set_targets(std::vector<std::uint32_t>{1, 3});
  EXPECT_EQ(c.flushed_on_last_retarget(), 1u);
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(1)));
  EXPECT_TRUE(c.contains(blk(10)));
  EXPECT_TRUE(c.contains(blk(11)));
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
  EXPECT_EQ(c.owned_in_set(0, 1), 2u);
}

TEST(EvictionControl, FlushReconfigureNoOpRetargetFlushesNothing) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayFlushReconfigure);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  c.access(0, blk(0), AccessType::kRead);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  EXPECT_EQ(c.flushed_on_last_retarget(), 0u);
  EXPECT_TRUE(c.contains(blk(0)));
}

TEST(EvictionControl, EvictionControlNeverFlushesOnRetarget) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.access(0, blk(0), AccessType::kRead);
  c.set_targets(std::vector<std::uint32_t>{1, 3});
  EXPECT_EQ(c.flushed_on_last_retarget(), 0u);
  EXPECT_TRUE(c.contains(blk(0)));
}

TEST(EvictionControl, DirtyEvictionsCountAsWritebacks) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  c.access(0, blk(0), AccessType::kWrite);  // dirty
  c.access(0, blk(1), AccessType::kRead);   // clean
  c.access(0, blk(2), AccessType::kRead);
  c.access(0, blk(3), AccessType::kRead);
  // Evict block 0 (LRU, dirty): one writeback charged to the evictor.
  c.access(1, blk(10), AccessType::kRead);
  EXPECT_EQ(c.stats().thread(1).writebacks, 1u);
  // Evict block 1 (clean): no writeback.
  c.access(1, blk(11), AccessType::kRead);
  EXPECT_EQ(c.stats().thread(1).writebacks, 1u);
}

TEST(EvictionControl, WriteHitDirtiesTheLine) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  c.access(0, blk(0), AccessType::kRead);   // clean fill
  c.access(0, blk(0), AccessType::kWrite);  // dirtied by the hit
  for (std::uint64_t b = 1; b < 4; ++b) c.access(0, blk(b), AccessType::kRead);
  c.access(0, blk(5), AccessType::kRead);  // evicts block 0
  EXPECT_EQ(c.stats().thread(0).writebacks, 1u);
}

TEST(EvictionControl, TargetValidation) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 1}), "sum");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 0}),
               "at least one way");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4}), "per thread");
  CacheCore u(one_set(), 2, PartitionEnforcement::kNone);
  EXPECT_DEATH(u.set_targets(std::vector<std::uint32_t>{2, 2}),
               "eviction control");
}

TEST(EvictionControl, MoreThreadsThanWaysRejected) {
  // Recoverable misconfiguration, not an abort: the message points at the
  // CLOS enforcement mode, which is the configuration that can serve it.
  try {
    BankedL2 c({.sets = 1, .ways = 2, .line_bytes = 64}, 3, /*banks=*/1,
               PartitionEnforcement::kWayEvictionControl);
    FAIL() << "3 threads on 2 ways must be rejected";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("more threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("clos"), std::string::npos);
  }
}

/// Property sweep: under random traffic and random (valid) retargeting, the
/// per-set ownership counters always sum to the number of valid lines and
/// never go negative, and cumulative stats stay consistent.
class EvictionControlProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvictionControlProperty, OwnershipAccounting) {
  Rng rng(GetParam());
  const CacheGeometry g = {.sets = 4, .ways = 8, .line_bytes = 64};
  const ThreadId n = 4;
  CacheCore c(g, n, PartitionEnforcement::kWayEvictionControl);
  for (int i = 0; i < 5'000; ++i) {
    if (i % 512 == 0) {
      // Random valid retarget.
      std::vector<std::uint32_t> t(n, 1);
      std::uint32_t left = g.ways - n;
      while (left > 0) {
        t[rng.below(n)] += 1;
        --left;
      }
      c.set_targets(t);
    }
    const auto tid = static_cast<ThreadId>(rng.below(n));
    c.access(tid, blk(rng.below(300)), AccessType::kRead);
    if (i % 97 == 0) {
      for (std::uint32_t s = 0; s < g.sets; ++s) {
        std::uint32_t owned = 0;
        for (ThreadId t = 0; t < n; ++t) owned += c.owned_in_set(s, t);
        EXPECT_LE(owned, g.ways);
      }
    }
  }
  // Global stats consistency: hits + misses == accesses per thread.
  for (ThreadId t = 0; t < n; ++t) {
    const auto& s = c.stats().thread(t);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_LE(s.inter_thread_hits, s.hits);
    EXPECT_LE(s.inter_thread_evictions_caused + s.intra_thread_evictions,
              s.misses);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, EvictionControlProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace capart::mem
