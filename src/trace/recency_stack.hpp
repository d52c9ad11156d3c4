// The generator's LRU stack of private blocks, in two tiers. A reuse at
// depth d in one vector (MRU at the back) memmoves d entries. So only the
// kTopBlocks most recent blocks stay in such a vector; older ones spill in
// recency order to an append-only log, where a reuse clears its slot, found
// by live counts per 64-slot word and per kGroupSlots-slot group and a
// select within the word. An LRU drop takes the log's lowest live slot, and
// the log compacts once its dead slots reach its live ones. The order is
// exactly the single vector's, and a working set of kTopBlocks or fewer
// never leaves the top tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace capart::trace {

/// Position of the set bit of rank `rank` (0 = lowest) in `word`, for
/// rank < popcount(word): branch-free broadword select (on baseline x86-64
/// std::popcount is a library call).
inline unsigned select64(std::uint64_t word, unsigned rank) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  // The bytes of `sums` (running counts) that are <= r.
  const auto below = [](std::uint64_t sums, std::uint64_t r) {
    return static_cast<unsigned>(
        (((((r * kOnes) | (kOnes << 7)) - sums) >> 7 & kOnes) * kOnes) >> 56);
  };
  std::uint64_t s = word - ((word >> 1) & 0x5555555555555555ull);
  s = (s & 0x3333333333333333ull) + ((s >> 2) & 0x3333333333333333ull);
  const std::uint64_t sums = ((s + (s >> 4)) & 0x0F0F0F0F0F0F0F0Full) * kOnes;
  const unsigned byte = below(sums, rank) * 8;
  // Within the byte: its bits spread one per byte, then the same step.
  const std::uint64_t bits =
      ((((word >> byte & 0xFF) * kOnes) & 0x8040201008040201ull) +
       0x7F7F7F7F7F7F7F7Full) >> 7 & kOnes;
  return byte + below(bits * kOnes, rank - ((sums << 8) >> byte & 0xFF));
}

class RecencyStack {
 public:
  static constexpr std::size_t kTopBlocks = 4096;
  static constexpr std::size_t kGroupSlots = 4096;

  /// Live blocks.
  std::size_t size() const noexcept { return size_; }

  /// Moves the block at `depth` (1 = MRU, at most size()) to the MRU end
  /// and returns it.
  std::uint32_t touch(std::size_t depth) {
    const std::size_t top = top_.size() - top_base_;
    if (depth > top) [[unlikely]] return touch_deep(depth - top);
    const auto it = top_.end() - static_cast<std::ptrdiff_t>(depth);
    const std::uint32_t block = *it;
    top_.erase(it);
    top_.push_back(block);
    return block;
  }

  /// Pushes `block` as the MRU.
  void push(std::uint32_t block) {
    if (top_.size() - top_base_ == kTopBlocks) spill();
    top_.push_back(block);
    ++size_;
  }

  /// Drops the `n` (at most size()) least recently used blocks.
  void drop_lru(std::size_t n) {
    if (size_ > top_.size() - top_base_) [[unlikely]] n = drop_log(n);
    size_ -= n;
    top_base_ += n;
    if (top_base_ >= top_.size() - top_base_) compact_top();
  }

  /// Sizes both tiers for up to `blocks` live blocks, so that later calls
  /// never allocate.
  void reserve(std::size_t blocks);

 private:
  static constexpr std::size_t kGroupWords = kGroupSlots / 64;

  std::uint32_t touch_deep(std::size_t rank);  // rank 1 = the log's newest
  void spill();  // moves the top tier's LRU block to the log's end
  std::size_t drop_log(std::size_t n);  // returns what the top tier drops
  void kill(std::size_t slot) noexcept;
  void compact_log_if_sparse();
  void compact_top();
  bool consistent(std::size_t word) const;  // a debug check of the counts

  /// Top tier: top_[top_base_..), MRU at the back; the dead prefix is
  /// compacted in one move once it reaches the live size.
  std::vector<std::uint32_t> top_;
  std::size_t top_base_ = 0;
  std::size_t size_ = 0;
  /// The log, oldest first: a live bit per slot, live slots per word and
  /// per group. Every word below head_ is dead.
  std::vector<std::uint32_t> log_;
  std::vector<std::uint64_t> live_;
  std::vector<std::uint8_t> word_live_;
  std::vector<std::uint16_t> group_live_;
  std::size_t head_ = 0;
};

}  // namespace capart::trace
