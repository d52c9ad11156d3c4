// The private hierarchy's caches — every L1 and private-L2 slice — are
// single-thread, unpartitioned CacheCores. Plain set-associative behaviour,
// checked on exact cases; tests/test_reference_cache.cpp covers the same
// caches against the reference model.
#include <gtest/gtest.h>

#include "src/mem/cache_core.hpp"
#include "tests/expect_config_error.hpp"

namespace capart::mem {
namespace {

// Tiny cache for precise behaviour checks: 4 sets x 2 ways x 64 B lines.
CacheGeometry tiny() { return {.sets = 4, .ways = 2, .line_bytes = 64}; }

/// Address of block `b` mapping to set (b % 4).
Addr blk(std::uint64_t b) { return b * 64; }

CacheCore single(const CacheGeometry& geometry) {
  return CacheCore(geometry, 1, PartitionEnforcement::kNone);
}

/// One access by the cache's only thread; true on a hit.
bool hit(CacheCore& c, Addr addr, AccessType type) {
  return c.access(0, addr, type).hit;
}

TEST(SingleThreadCache, MissThenHit) {
  CacheCore c = single(tiny());
  EXPECT_FALSE(hit(c, blk(0), AccessType::kRead));
  EXPECT_TRUE(hit(c, blk(0), AccessType::kRead));
  EXPECT_EQ(c.stats().thread(0).accesses, 2u);
  EXPECT_EQ(c.stats().thread(0).hits, 1u);
  EXPECT_EQ(c.stats().thread(0).misses, 1u);
}

TEST(SingleThreadCache, SameLineDifferentOffsetHits) {
  CacheCore c = single(tiny());
  hit(c, 0, AccessType::kRead);
  EXPECT_TRUE(hit(c, 63, AccessType::kRead));   // same 64 B line
  EXPECT_FALSE(hit(c, 64, AccessType::kRead));  // next line
}

TEST(SingleThreadCache, LruEvictionWithinSet) {
  CacheCore c = single(tiny());
  // Blocks 0, 4, 8 all map to set 0; associativity 2.
  hit(c, blk(0), AccessType::kRead);
  hit(c, blk(4), AccessType::kRead);
  hit(c, blk(0), AccessType::kRead);  // 0 is now MRU
  hit(c, blk(8), AccessType::kRead);  // evicts 4 (LRU)
  EXPECT_TRUE(c.contains(blk(0)));
  EXPECT_FALSE(c.contains(blk(4)));
  EXPECT_TRUE(c.contains(blk(8)));
}

TEST(SingleThreadCache, DistinctSetsDoNotConflict) {
  CacheCore c = single(tiny());
  for (std::uint64_t b = 0; b < 8; ++b) {
    hit(c, blk(b), AccessType::kRead);
  }
  // 8 blocks over 4 sets x 2 ways fill the cache exactly; all resident.
  for (std::uint64_t b = 0; b < 8; ++b) {
    EXPECT_TRUE(c.contains(blk(b))) << "block " << b;
  }
}

TEST(SingleThreadCache, WritesAllocateLikeReads) {
  CacheCore c = single(tiny());
  EXPECT_FALSE(hit(c, blk(3), AccessType::kWrite));
  EXPECT_TRUE(hit(c, blk(3), AccessType::kRead));
}

TEST(SingleThreadCache, FlushDropsContentsKeepsStats) {
  CacheCore c = single(tiny());
  hit(c, blk(1), AccessType::kRead);
  hit(c, blk(1), AccessType::kRead);
  c.flush();
  EXPECT_FALSE(c.contains(blk(1)));
  EXPECT_EQ(c.stats().thread(0).accesses, 2u);
  EXPECT_EQ(c.stats().thread(0).hits, 1u);
  EXPECT_FALSE(hit(c, blk(1), AccessType::kRead));
}

TEST(SingleThreadCache, FullAssociativitySweep) {
  // 1 set x 8 ways: behaves as a fully associative LRU of capacity 8.
  CacheCore c = single({.sets = 1, .ways = 8, .line_bytes = 64});
  for (std::uint64_t b = 0; b < 8; ++b) hit(c, blk(b), AccessType::kRead);
  for (std::uint64_t b = 0; b < 8; ++b) {
    EXPECT_TRUE(hit(c, blk(b), AccessType::kRead));
  }
  hit(c, blk(100), AccessType::kRead);  // evicts block 0 (LRU)
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(1)));
}

TEST(SingleThreadCache, RecencyDepthIsTheLruPosition) {
  // The UMON shadows' access, on a scan-probed and an index-probed store:
  // it returns the block's LRU position before the access (ways when not
  // resident), then touches or fills the block as a read would.
  for (const std::uint32_t ways : {4u, 16u}) {
    CacheCore c = single({.sets = 1, .ways = ways, .line_bytes = 64});
    EXPECT_EQ(c.recency_access(0, 0), ways);  // empty: not resident
    EXPECT_EQ(c.recency_access(0, 0), 0u);    // filled as the MRU
    c.flush();
    for (std::uint64_t b = 0; b < ways; ++b) hit(c, blk(b), AccessType::kRead);
    // Newest first: only blocks above b have moved when b is reached.
    for (std::uint64_t b = ways; b-- > 0;) {
      EXPECT_EQ(c.recency_access(b, 0), ways - 1 - b) << ways << " ways";
    }
    EXPECT_EQ(c.recency_access(0, 0), 0u);  // block 0 is the MRU now
    EXPECT_EQ(c.recency_access(ways - 1, 0), ways - 1);  // and this the LRU
    EXPECT_EQ(c.recency_access(ways, 0), ways);  // evicts ways - 2, the LRU
    EXPECT_FALSE(c.contains(blk(ways - 2)));
    EXPECT_EQ(c.recency_access(ways, 0), 0u);
    EXPECT_EQ(c.recency_access(0, 0), 2u);
    c.flush();
    EXPECT_EQ(c.recency_access(0, 0), ways);
    // The shadow's accesses keep no stats: only hit()'s are counted.
    EXPECT_EQ(c.stats().thread(0).accesses, ways);
  }
}

TEST(SingleThreadCache, CyclicSweepOverCapacityAlwaysMisses) {
  // Classic LRU pathology: looping over capacity+1 blocks never hits.
  CacheCore c = single({.sets = 1, .ways = 4, .line_bytes = 64});
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t b = 0; b < 5; ++b) {
      hit(c, blk(b), AccessType::kRead);
    }
  }
  EXPECT_EQ(c.stats().thread(0).hits, 0u);
}

TEST(SingleThreadCache, GeometryValidation) {
  EXPECT_CONFIG_ERROR(single({.sets = 3, .ways = 2, .line_bytes = 64}),
                      "power of two");
  EXPECT_CONFIG_ERROR(single({.sets = 4, .ways = 0, .line_bytes = 64}),
                      "at least one way");
  EXPECT_CONFIG_ERROR(single({.sets = 4, .ways = 2, .line_bytes = 48}),
                      "power of two");
  EXPECT_CONFIG_ERROR(single({.sets = 1, .ways = 65536, .line_bytes = 64}),
                      "at most 65535 ways");
}

TEST(SingleThreadCache, GeometryHelpers) {
  const CacheGeometry g = {.sets = 256, .ways = 64, .line_bytes = 64};
  EXPECT_EQ(g.size_bytes(), 1024u * 1024u);
  EXPECT_EQ(g.block_of(0), 0u);
  EXPECT_EQ(g.block_of(64), 1u);
  EXPECT_EQ(g.set_of_block(256), 0u);
  EXPECT_EQ(g.set_of_block(257), 1u);
}

}  // namespace
}  // namespace capart::mem
