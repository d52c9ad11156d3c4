// Spot checks of the tag probe (src/mem/simd.hpp), the one loop every
// scan-probed cache and every first-empty-way search runs. End to end, the
// scan-probed caches (below 16 ways) are held to a naive reference model by
// tests/test_reference_cache.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/mem/replacement.hpp"
#include "src/mem/simd.hpp"

namespace capart {
namespace {

TEST(SimdDifferential, FindTagEdgeWidths) {
  // A match in the middle, a match in the last way, no match at all,
  // first-of-duplicates, the first empty way, and zero and one way.
  std::vector<std::uint64_t> tags(9, mem::kInvalidTag);
  tags[3] = 7;
  tags[4] = 7;  // duplicate: find_tag must return 3, not 4
  tags[8] = 42;
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 9, 7), 3u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 9, 42), 8u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 9, 43), 9u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 9, mem::kInvalidTag), 0u);
  EXPECT_EQ(mem::simd::find_tag(tags.data() + 3, 6, mem::kInvalidTag), 2u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 1, 42), 1u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 0, 42), 0u);
}

}  // namespace
}  // namespace capart
