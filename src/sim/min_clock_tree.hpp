// The driver's scheduler: a complete binary min-tree over next_pow2(n)
// leaves in implicit-heap layout (node i has children 2i and 2i+1; leaf t
// is node width + t). Leaf t holds (clock << 64) | t, or kIdle while thread
// t cannot run, so the root is the (clock, tid) minimum, lowest tid on clock
// ties. A level is one branch-free 128-bit std::min. The key keeps the full
// 64-bit clock: cycle costs come from user-supplied timing parameters.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "src/common/types.hpp"

namespace capart::sim {

class MinClockTree {
 public:
  __extension__ typedef unsigned __int128 Key;
  /// A leaf that cannot run; the root is kIdle when no leaf can.
  static constexpr Key kIdle = ~Key{0};
  static constexpr Key key(Cycles clock, ThreadId t) noexcept {
    return Key{clock} << 64 | t;
  }

  explicit MinClockTree(std::size_t leaves)
      : width_(std::bit_ceil(std::max<std::size_t>(leaves, 1))),
        nodes_(2 * width_, kIdle) {}

  /// Sets one leaf and re-derives its path to the root: log2(width) mins.
  void update(std::size_t leaf, Key k) noexcept {
    for (std::size_t node = width_ + leaf; node > 1; node >>= 1) {
      nodes_[node] = k;
      k = std::min(k, nodes_[node ^ 1]);
    }
    nodes_[1] = k;
  }
  /// Sets one leaf only; call rebuild() before the next min().
  void assign(std::size_t leaf, Key k) noexcept { nodes_[width_ + leaf] = k; }
  /// Re-derives every internal node from the leaves, in O(width).
  void rebuild() noexcept {
    for (std::size_t node = width_ - 1; node >= 1; --node) {
      nodes_[node] = std::min(nodes_[2 * node], nodes_[2 * node + 1]);
    }
  }
  /// The smallest key, whose low 32 bits name its thread; kIdle if none.
  Key min() const noexcept { return nodes_[1]; }

  bool operator==(const MinClockTree&) const = default;

 private:
  std::size_t width_;
  std::vector<Key> nodes_;
};

}  // namespace capart::sim
