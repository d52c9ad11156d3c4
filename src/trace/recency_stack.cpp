#include "src/trace/recency_stack.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "src/common/check.hpp"

namespace capart::trace {

void RecencyStack::reserve(std::size_t blocks) {
  // Each tier compacts once its dead part reaches its live size.
  top_.reserve(2 * std::min(blocks, kTopBlocks) + 2);
  const std::size_t deep = blocks > kTopBlocks ? 2 * (blocks - kTopBlocks) + 2 : 0;
  log_.reserve(deep);
  live_.reserve(deep / 64 + 1);
  word_live_.reserve(deep / 64 + 1);
  group_live_.reserve(deep / kGroupSlots + 1);
}

std::uint32_t RecencyStack::touch_deep(std::size_t rank) {
  CAPART_DCHECK(rank <= size_ - kTopBlocks, "recency stack: depth beyond it");
  std::size_t g = group_live_.size() - 1;
  while (rank > group_live_[g]) rank -= group_live_[g--];
  std::size_t w = std::min(live_.size(), (g + 1) * kGroupWords) - 1;
  while (rank > word_live_[w]) rank -= word_live_[w--];
  // The word's rank-th newest live slot is its (count - rank)-th lowest.
  const std::size_t slot =
      w * 64 + select64(live_[w], static_cast<unsigned>(word_live_[w] - rank));
  const std::uint32_t block = log_[slot];
  kill(slot);
  spill();
  top_.push_back(block);
  CAPART_DCHECK(consistent(w), "recency stack: log counts disagree");
  compact_log_if_sparse();
  return block;
}

void RecencyStack::spill() {
  const std::size_t slot = log_.size();
  log_.push_back(top_[top_base_]);
  if (slot % 64 == 0) {
    live_.push_back(0);
    word_live_.push_back(0);
    if (slot % kGroupSlots == 0) group_live_.push_back(0);
  }
  live_.back() |= std::uint64_t{1} << (slot % 64);
  ++word_live_.back();
  ++group_live_.back();
  ++top_base_;
  if (top_base_ >= top_.size() - top_base_) compact_top();
  CAPART_DCHECK(consistent(slot / 64), "recency stack: log counts disagree");
}

std::size_t RecencyStack::drop_log(std::size_t n) {
  // The log holds the oldest blocks. head_ only rises between compactions,
  // so each dead word is skipped once.
  const std::size_t deep = std::min(n, size_ - (top_.size() - top_base_));
  size_ -= deep;
  for (std::size_t i = 0; i < deep; ++i) {
    while (word_live_[head_] == 0) ++head_;
    kill(head_ * 64 + static_cast<std::size_t>(std::countr_zero(live_[head_])));
    CAPART_DCHECK(consistent(head_), "recency stack: log counts disagree");
  }
  compact_log_if_sparse();
  return n - deep;
}

void RecencyStack::kill(std::size_t slot) noexcept {
  live_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  --word_live_[slot / 64];
  --group_live_[slot / kGroupSlots];
}

void RecencyStack::compact_log_if_sparse() {
  const std::size_t live = size_ - (top_.size() - top_base_);
  CAPART_DCHECK(live == std::accumulate(group_live_.begin(), group_live_.end(),
                                        std::size_t{0}),
                "recency stack: group counts miss live blocks");
  if (log_.size() - live < live) return;
  std::size_t out = 0;
  for (std::size_t w = head_; w < live_.size(); ++w) {
    for (std::uint64_t bits = live_[w]; bits != 0; bits &= bits - 1) {
      log_[out++] = log_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
    }
  }
  log_.resize(out);
  live_.assign(out / 64, ~std::uint64_t{0});
  word_live_.assign(out / 64, 64);
  group_live_.assign(out / kGroupSlots, static_cast<std::uint16_t>(kGroupSlots));
  if (out % 64 != 0) {
    live_.push_back((std::uint64_t{1} << (out % 64)) - 1);
    word_live_.push_back(static_cast<std::uint8_t>(out % 64));
  }
  if (out % kGroupSlots != 0) group_live_.push_back(static_cast<std::uint16_t>(out % kGroupSlots));
  head_ = 0;
}

void RecencyStack::compact_top() {
  top_.erase(top_.begin(), top_.begin() + static_cast<std::ptrdiff_t>(top_base_));
  top_base_ = 0;
}

bool RecencyStack::consistent(std::size_t word) const {
  // Each word's count is its bit count, its group's the sum of its words'.
  const std::size_t g = word / kGroupWords;
  const auto first = word_live_.begin() + static_cast<std::ptrdiff_t>(g * kGroupWords);
  const auto last = first + static_cast<std::ptrdiff_t>(
                                std::min(kGroupWords, word_live_.size() - g * kGroupWords));
  return word_live_[word] == std::popcount(live_[word]) &&
         std::size_t{group_live_[g]} == std::accumulate(first, last, std::size_t{0});
}

}  // namespace capart::trace
