#include "src/mem/replacement.hpp"

#include <algorithm>
#include <bit>

#include "src/common/check.hpp"

namespace capart::mem {

std::string_view to_string(ReplacementKind kind) noexcept {
  switch (kind) {
    case ReplacementKind::kTrueLru: return "lru";
    case ReplacementKind::kTreePlru: return "plru";
    case ReplacementKind::kSrrip: return "srrip";
  }
  return "unknown";
}

bool parse_replacement(std::string_view name, ReplacementKind& out) noexcept {
  if (name == "lru") {
    out = ReplacementKind::kTrueLru;
  } else if (name == "plru") {
    out = ReplacementKind::kTreePlru;
  } else if (name == "srrip") {
    out = ReplacementKind::kSrrip;
  } else {
    return false;
  }
  return true;
}

LruList::LruList(std::uint32_t sets, std::uint32_t ways) : ways_(ways) {
  CAPART_CHECK(sets > 0 && ways > 0, "LRU list needs sets and ways");
  CAPART_CHECK(ways <= 65535, "LRU list supports at most 65535 ways");
  prev_.resize(static_cast<std::size_t>(sets) * ways_);
  next_.resize(prev_.size());
  head_.resize(sets);
  tail_.resize(sets);
  reset();
}

void LruList::reset() {
  const std::size_t sets = head_.size();
  for (std::size_t s = 0; s < sets; ++s) {
    std::uint16_t* prev = &prev_[s * ways_];
    std::uint16_t* next = &next_[s * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      prev[w] = static_cast<std::uint16_t>(w - 1);  // undefined at the head
      next[w] = static_cast<std::uint16_t>(w + 1);  // undefined at the tail
    }
    head_[s] = 0;
    tail_[s] = static_cast<std::uint16_t>(ways_ - 1);
  }
}

namespace {

/// True LRU over the linked recency list. Victim = the eligible way closest
/// to the LRU end — exactly "the least recently used line among the
/// permitted subset", which is what the paper's §V eviction control asks of
/// the base policy.
class LruReplacement final : public ReplacementPolicy {
 public:
  LruReplacement(std::uint32_t sets, std::uint32_t ways) : list_(sets, ways) {}

  ReplacementKind kind() const noexcept override {
    return ReplacementKind::kTrueLru;
  }

  LruList* lru_list() noexcept override { return &list_; }

  void on_fill(std::uint32_t set, std::uint32_t way) override {
    list_.touch(set, way);
  }

  void on_hit(std::uint32_t set, std::uint32_t way) override {
    list_.touch(set, way);
  }

  std::uint32_t victim(std::uint32_t set, const Eligible& eligible) override {
    const std::uint32_t way = list_.find_from_lru(set, eligible);
    CAPART_CHECK(way < list_.ways(), "LRU victim search found no candidate");
    return way;
  }

  void reset() override { list_.reset(); }

 private:
  LruList list_;
};

/// Tree-PLRU: one bit per internal node of a binary tree over the ways
/// (rounded up to a power of two; phantom leaves are never eligible). A
/// touch flips the path bits away from the touched way; the victim walk
/// follows the bits from the root, detouring wherever the pointed-to subtree
/// holds no eligible way — the standard masked walk of way-partitioned PLRU
/// hardware.
class TreePlruReplacement final : public ReplacementPolicy {
 public:
  TreePlruReplacement(std::uint32_t sets, std::uint32_t ways)
      : ways_(ways),
        leaves_(std::bit_ceil(ways)),
        nodes_(leaves_ - 1),
        bits_(static_cast<std::size_t>(sets) * nodes_, 0) {}

  ReplacementKind kind() const noexcept override {
    return ReplacementKind::kTreePlru;
  }

  void on_fill(std::uint32_t set, std::uint32_t way) override { touch(set, way); }
  void on_hit(std::uint32_t set, std::uint32_t way) override { touch(set, way); }

  std::uint32_t victim(std::uint32_t set, const Eligible& eligible) override {
    if (nodes_ == 0) return 0;
    const std::uint8_t* bits = &bits_[static_cast<std::size_t>(set) * nodes_];
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t span = leaves_;
    while (node < nodes_) {
      span /= 2;
      const bool right = bits[node] != 0;
      const std::uint32_t preferred_lo = right ? lo + span : lo;
      if (any_eligible(preferred_lo, span, eligible)) {
        lo = preferred_lo;
        node = 2 * node + (right ? 2 : 1);
      } else {
        lo = right ? lo : lo + span;
        node = 2 * node + (right ? 1 : 2);
      }
    }
    CAPART_CHECK(lo < ways_ && eligible(lo),
                 "PLRU victim walk found no candidate");
    return lo;
  }

  void reset() override { std::fill(bits_.begin(), bits_.end(), 0); }

 private:
  void touch(std::uint32_t set, std::uint32_t way) {
    if (nodes_ == 0) return;
    std::uint8_t* bits = &bits_[static_cast<std::size_t>(set) * nodes_];
    std::uint32_t node = nodes_ + way;  // leaf index in the implicit tree
    while (node > 0) {
      const std::uint32_t parent = (node - 1) / 2;
      // Point the parent away from the touched child.
      bits[parent] = (node == 2 * parent + 1) ? 1 : 0;
      node = parent;
    }
  }

  /// Any eligible way among leaves [lo, lo + span)?
  bool any_eligible(std::uint32_t lo, std::uint32_t span,
                    const Eligible& eligible) const {
    const std::uint32_t hi = std::min(lo + span, ways_);
    for (std::uint32_t w = lo; w < hi; ++w) {
      if (eligible(w)) return true;
    }
    return false;
  }

  std::uint32_t ways_;
  std::uint32_t leaves_;
  std::uint32_t nodes_;
  std::vector<std::uint8_t> bits_;
};

/// SRRIP (Jaleel et al., ISCA'10) with 2-bit re-reference prediction values.
/// Fills insert at "long re-reference" (RRPV 2), hits promote to 0, and the
/// victim is the first way at RRPV 3 among the eligible subset — aging only
/// the eligible lines when none is there, so partitions age independently.
class SrripReplacement final : public ReplacementPolicy {
 public:
  static constexpr std::uint8_t kMaxRrpv = 3;
  static constexpr std::uint8_t kInsertRrpv = 2;

  SrripReplacement(std::uint32_t sets, std::uint32_t ways)
      : ways_(ways),
        rrpv_(static_cast<std::size_t>(sets) * ways, kMaxRrpv) {}

  ReplacementKind kind() const noexcept override {
    return ReplacementKind::kSrrip;
  }

  void on_fill(std::uint32_t set, std::uint32_t way) override {
    rrpv_[static_cast<std::size_t>(set) * ways_ + way] = kInsertRrpv;
  }

  void on_hit(std::uint32_t set, std::uint32_t way) override {
    rrpv_[static_cast<std::size_t>(set) * ways_ + way] = 0;
  }

  std::uint32_t victim(std::uint32_t set, const Eligible& eligible) override {
    std::uint8_t* rrpv = &rrpv_[static_cast<std::size_t>(set) * ways_];
    // At most kMaxRrpv aging rounds bring some eligible line to kMaxRrpv.
    for (int round = 0; round <= kMaxRrpv + 1; ++round) {
      std::uint8_t best = 0;
      for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!eligible(w)) continue;
        if (rrpv[w] >= kMaxRrpv) return w;
        best = std::max(best, rrpv[w]);
      }
      const std::uint8_t bump = static_cast<std::uint8_t>(kMaxRrpv - best);
      for (std::uint32_t w = 0; w < ways_; ++w) {
        if (eligible(w)) {
          rrpv[w] = static_cast<std::uint8_t>(rrpv[w] + bump);
        }
      }
    }
    CAPART_CHECK(false, "SRRIP victim search found no candidate");
  }

  void reset() override {
    std::fill(rrpv_.begin(), rrpv_.end(), kMaxRrpv);
  }

 private:
  std::uint32_t ways_;
  std::vector<std::uint8_t> rrpv_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> make_replacement(ReplacementKind kind,
                                                    std::uint32_t sets,
                                                    std::uint32_t ways) {
  switch (kind) {
    case ReplacementKind::kTrueLru:
      return std::make_unique<LruReplacement>(sets, ways);
    case ReplacementKind::kTreePlru:
      return std::make_unique<TreePlruReplacement>(sets, ways);
    case ReplacementKind::kSrrip:
      return std::make_unique<SrripReplacement>(sets, ways);
  }
  CAPART_CHECK(false, "unreachable replacement kind");
}

}  // namespace capart::mem
