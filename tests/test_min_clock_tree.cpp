// MinClockTree against a naive oracle: after every leaf update the root must
// name the runnable leaf a linear scan picks — the smallest clock, the
// lowest thread on clock ties — and the incrementally updated tree must
// equal one rebuilt from scratch over the same leaves.
#include "src/sim/min_clock_tree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/common/rng.hpp"

namespace capart::sim {
namespace {

using Key = MinClockTree::Key;

constexpr Cycles kMaxClock = std::numeric_limits<Cycles>::max();

/// Leaf counts: the trivial tree, both sides of several powers of two, and
/// the driver's largest tested thread count.
const std::vector<std::size_t> kLeafCounts = {1, 2, 3, 4, 5, 8, 31, 32, 33,
                                              128};

/// The oracle's view of one leaf: a clock while runnable, nothing otherwise.
using Leaf = std::optional<Cycles>;

/// The key of the leaf a linear scan over (clock, tid) picks, or kIdle.
Key linear_argmin(const std::vector<Leaf>& leaves) {
  std::optional<ThreadId> best;
  for (ThreadId t = 0; t < leaves.size(); ++t) {
    if (leaves[t] && (!best || *leaves[t] < *leaves[*best])) best = t;
  }
  return best ? MinClockTree::key(*leaves[*best], *best) : MinClockTree::kIdle;
}

MinClockTree rebuilt(const std::vector<Leaf>& leaves) {
  MinClockTree tree(leaves.size());
  for (ThreadId t = 0; t < leaves.size(); ++t) {
    tree.assign(t, leaves[t] ? MinClockTree::key(*leaves[t], t)
                             : MinClockTree::kIdle);
  }
  tree.rebuild();
  return tree;
}

/// A clock from a narrow range, so ties are frequent — a quarter of them
/// at the very top of the 64-bit range.
Cycles random_clock(Rng& rng) {
  const Cycles low = rng.below(6);
  return rng.below(4) == 0 ? kMaxClock - low : low;
}

TEST(MinClockTree, FreshTreeHasNoRunnableLeaf) {
  for (const std::size_t n : kLeafCounts) {
    const MinClockTree tree(n);
    EXPECT_EQ(tree.min(), MinClockTree::kIdle) << n << " leaves";
    EXPECT_TRUE(tree == rebuilt(std::vector<Leaf>(n))) << n << " leaves";
  }
}

TEST(MinClockTree, RandomUpdatesMatchALinearArgmin) {
  for (const std::size_t n : kLeafCounts) {
    SCOPED_TRACE(::testing::Message() << n << " leaves");
    Rng rng(1'000 + n);
    MinClockTree tree(n);
    std::vector<Leaf> leaves(n);
    for (int op = 0; op < 3'000; ++op) {
      const auto t = static_cast<ThreadId>(rng.below(n));
      // Half the operations toggle a leaf between runnable and not; the
      // rest move a leaf's clock, leaving it runnable.
      if (rng.below(2) == 0 && leaves[t]) {
        leaves[t].reset();
      } else {
        leaves[t] = random_clock(rng);
      }
      tree.update(t, leaves[t] ? MinClockTree::key(*leaves[t], t)
                               : MinClockTree::kIdle);
      const Key want = linear_argmin(leaves);
      ASSERT_EQ(tree.min(), want) << "after operation " << op;
      ASSERT_TRUE(tree == rebuilt(leaves)) << "after operation " << op;
    }
  }
}

TEST(MinClockTree, ReportsNoneRunnableOnlyOnceEveryLeafIsIdle) {
  for (const std::size_t n : kLeafCounts) {
    SCOPED_TRACE(::testing::Message() << n << " leaves");
    Rng rng(2'000 + n);
    MinClockTree tree(n);
    std::vector<Leaf> leaves(n);
    for (ThreadId t = 0; t < n; ++t) {
      leaves[t] = random_clock(rng);
      tree.update(t, MinClockTree::key(*leaves[t], t));
    }
    // Idle the leaves in a random order; the root stays a real key until
    // the last one goes.
    std::vector<ThreadId> order(n);
    for (ThreadId t = 0; t < n; ++t) order[t] = t;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NE(tree.min(), MinClockTree::kIdle) << i << " idled";
      leaves[order[i]].reset();
      tree.update(order[i], MinClockTree::kIdle);
      EXPECT_EQ(tree.min(), linear_argmin(leaves)) << i + 1 << " idled";
    }
    EXPECT_EQ(tree.min(), MinClockTree::kIdle);
    EXPECT_TRUE(tree == rebuilt(leaves));
  }
}

TEST(MinClockTree, ClockTiesGoToTheLowestThread) {
  for (const Cycles clock : {Cycles{0}, Cycles{77}, kMaxClock}) {
    MinClockTree tree(33);
    for (ThreadId t = 33; t-- > 0;) tree.update(t, MinClockTree::key(clock, t));
    for (ThreadId t = 0; t < 33; ++t) {
      EXPECT_EQ(tree.min(), MinClockTree::key(clock, t)) << "clock " << clock;
      EXPECT_EQ(static_cast<ThreadId>(tree.min()), t);
      tree.update(t, MinClockTree::kIdle);
    }
    EXPECT_EQ(tree.min(), MinClockTree::kIdle);
  }
}

TEST(MinClockTree, KeysOrderByTheFullClockBeforeTheThread) {
  // No clock is too large to run: the latest clock with the largest thread
  // id still sorts before an idle leaf.
  EXPECT_LT(MinClockTree::key(kMaxClock, kNoThread), MinClockTree::kIdle);
  EXPECT_LT(MinClockTree::key(kMaxClock - 1, kNoThread),
            MinClockTree::key(kMaxClock, 0));
  EXPECT_LT(MinClockTree::key(Cycles{1} << 63, 5),
            MinClockTree::key((Cycles{1} << 63) + 1, 0));
  MinClockTree tree(2);
  tree.update(0, MinClockTree::key(kMaxClock, 0));
  tree.update(1, MinClockTree::key(kMaxClock - 1, 1));
  EXPECT_EQ(static_cast<ThreadId>(tree.min()), 1u);
}

}  // namespace
}  // namespace capart::sim
