// Unit tests for the incremental block->way index (src/mem/block_index.hpp):
// the open-addressing table itself, checked against a reference map under
// randomized insert/erase/lookup churn, plus the associativity rule that
// decides which caches use it.
#include "src/mem/block_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/cache_config.hpp"

namespace capart::mem {
namespace {

TEST(BlockWayIndex, UsedFromSixteenWays) {
  // The default L1 (4-way) and private-L2 slice (8-way) keep the scan; the
  // default shared L2 (64-way) gets the index.
  EXPECT_FALSE(use_block_index(kDefaultL1.ways));
  EXPECT_FALSE(use_block_index(kDefaultPrivateL2.ways));
  EXPECT_TRUE(use_block_index(kDefaultL2.ways));
  EXPECT_FALSE(use_block_index(15));
  EXPECT_TRUE(use_block_index(16));
}

TEST(BlockWayIndex, CapacityIsNextPow2OfTwiceWays) {
  EXPECT_EQ(BlockWayIndex(4, 4).capacity_per_set(), 8u);
  EXPECT_EQ(BlockWayIndex(4, 5).capacity_per_set(), 16u);
  EXPECT_EQ(BlockWayIndex(1, 16).capacity_per_set(), 32u);
  EXPECT_EQ(BlockWayIndex(256, 64).capacity_per_set(), 128u);
}

TEST(BlockWayIndex, InsertLookupErase) {
  BlockWayIndex index(2, 4);
  EXPECT_EQ(index.lookup(0, 100), BlockWayIndex::kNotFound);
  index.insert(0, 100, 2);
  index.insert(1, 100, 3);  // same block in another set is independent
  EXPECT_EQ(index.lookup(0, 100), 2u);
  EXPECT_EQ(index.lookup(1, 100), 3u);
  EXPECT_EQ(index.size(), 2u);
  index.erase(0, 100);
  EXPECT_EQ(index.lookup(0, 100), BlockWayIndex::kNotFound);
  EXPECT_EQ(index.lookup(1, 100), 3u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(BlockWayIndex, LookupReportsProbeCount) {
  BlockWayIndex index(1, 8);
  index.insert(0, 42, 0);
  std::uint32_t probes = 0;
  EXPECT_EQ(index.lookup(0, 42, &probes), 0u);
  EXPECT_GE(probes, 1u);
  EXPECT_LE(probes, index.capacity_per_set());
  probes = 0;
  index.lookup(0, 43, &probes);
  EXPECT_GE(probes, 1u);
}

TEST(BlockWayIndex, ClearEmptiesAllSets) {
  BlockWayIndex index(4, 4);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t w = 0; w < 4; ++w) {
      index.insert(s, 1000 + s * 4 + w, w);
    }
  }
  EXPECT_EQ(index.size(), 16u);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(index.lookup(s, 1000 + s * 4), BlockWayIndex::kNotFound);
  }
  // The table is fully reusable after a clear.
  index.insert(2, 7, 1);
  EXPECT_EQ(index.lookup(2, 7), 1u);
}

// The load-bearing test: randomized churn at the maximum load factor
// (ways == capacity / 2) against a reference map. With 8 slots per set and
// up to 4 entries, collision chains, wraparound and backward-shift deletion
// through chains all occur constantly.
TEST(BlockWayIndex, RandomizedMatchesReferenceModel) {
  constexpr std::uint32_t kSets = 16;
  constexpr std::uint32_t kWays = 4;
  BlockWayIndex index(kSets, kWays);
  // Reference: per-set block->way map, plus a dense block list for sampling.
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> model(kSets);
  std::vector<std::vector<std::uint64_t>> resident(kSets);
  Rng rng(2026);

  std::uint64_t entries = 0;
  for (int op = 0; op < 200'000; ++op) {
    const auto set = static_cast<std::uint32_t>(rng.below(kSets));
    auto& m = model[set];
    auto& blocks = resident[set];
    const std::uint64_t action = rng.below(3);
    if (action == 0 && m.size() < kWays) {
      // Insert a block not currently resident in this set.
      std::uint64_t block;
      do {
        block = rng.below(1u << 14);
      } while (m.contains(block));
      const auto way = static_cast<std::uint32_t>(rng.below(kWays));
      index.insert(set, block, way);
      m.emplace(block, way);
      blocks.push_back(block);
      ++entries;
    } else if (action == 1 && !blocks.empty()) {
      // Erase a resident block.
      const std::size_t pick = rng.below(blocks.size());
      const std::uint64_t block = blocks[pick];
      index.erase(set, block);
      m.erase(block);
      blocks[pick] = blocks.back();
      blocks.pop_back();
      --entries;
    } else {
      // Lookup: resident and absent blocks must both agree with the model.
      const std::uint64_t block = rng.below(1u << 14);
      const auto it = m.find(block);
      const std::uint32_t expected =
          it == m.end() ? BlockWayIndex::kNotFound : it->second;
      ASSERT_EQ(index.lookup(set, block), expected)
          << "op " << op << " set " << set << " block " << block;
    }
    ASSERT_EQ(index.size(), entries);
  }

  // Full sweep at the end: every model entry is findable, nothing extra.
  for (std::uint32_t set = 0; set < kSets; ++set) {
    for (const auto& [block, way] : model[set]) {
      ASSERT_EQ(index.lookup(set, block), way);
    }
  }
}

// Erasing the head of a collision chain must backward-shift the rest so no
// chain member becomes unreachable (the classic tombstone-free deletion
// hazard). Exercised deterministically by filling one tiny set completely.
TEST(BlockWayIndex, EraseKeepsChainMembersReachable) {
  constexpr std::uint32_t kWays = 4;  // capacity 8: dense enough to chain
  BlockWayIndex index(1, kWays);
  const std::uint64_t blocks[kWays] = {11, 22, 33, 44};
  for (std::uint32_t w = 0; w < kWays; ++w) index.insert(0, blocks[w], w);
  // Erase in every order; remaining entries must stay reachable each time.
  for (std::uint32_t victim = 0; victim < kWays; ++victim) {
    index.erase(0, blocks[victim]);
    for (std::uint32_t w = 0; w < kWays; ++w) {
      const std::uint32_t expected =
          w <= victim ? BlockWayIndex::kNotFound : w;
      ASSERT_EQ(index.lookup(0, blocks[w]), expected) << "victim " << victim;
    }
  }
  EXPECT_EQ(index.size(), 0u);
}

}  // namespace
}  // namespace capart::mem
