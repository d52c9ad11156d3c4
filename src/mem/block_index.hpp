// Incremental per-set block->way index for O(1) tag lookup.
//
// Every simulated access used to pay a linear scan over all ways to find the
// resident line — at the paper's 64-way shared L2 (Fig 2) that scan is the
// single hottest loop in the simulator, and the UMON shadow directory repeats
// it once more per sampled access. `BlockWayIndex` replaces the scan with one
// flat open-addressing hash table, `sets x next_pow2(2 * ways)` slots,
// maintained incrementally on fill/evict/flush/retarget so the access path
// never allocates and never rescans.
//
// Invariant: the index holds exactly the (block, way) pairs of the *valid*
// lines of each set — an entry exists if and only if the line is valid. A
// set holds at most one copy of a block (fills only happen after a lookup
// miss in that set), so a lookup either finds the unique resident way or
// proves a miss. Because the index only changes *how* the resident way is
// found — never which line hits, which way is victimized, or any replacement
// metadata — cache behaviour is bit-identical to the scan under every
// replacement policy and enforcement mode (the reference-model tests in
// tests/test_reference_cache.cpp check both lookups against a naive cache).
//
// Collisions use linear probing with backward-shift deletion (no
// tombstones), so probe chains stay short forever: the per-set load factor
// is at most ways / next_pow2(2 * ways) <= 0.5 by construction.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace capart::mem {

/// Whether a structure of `ways` ways finds its resident lines through a
/// BlockWayIndex rather than the tag scan of simd.hpp. The scan
/// wins at small associativities (the L1s and private-L2 slices) and loses
/// to the index from about 16 ways up (the crossover bench/micro_cache
/// measures with BM_IndexHit and BM_IndexMissEvictionControl); the paper's
/// 64-way shared L2 and its UMON shadow directories take the index. Either
/// way the same line is found, so results never depend on this rule.
constexpr bool use_block_index(std::uint32_t ways) noexcept {
  return ways >= 16;
}

class BlockWayIndex {
 public:
  /// Lookup miss sentinel (also the empty-slot marker; way counts are
  /// bounded far below it by CacheGeometry).
  static constexpr std::uint32_t kNotFound = 0xFFFF;

  BlockWayIndex(std::uint32_t sets, std::uint32_t ways);

  /// Resident way of `block` in `set`, or kNotFound. When `probes` is
  /// non-null it receives the number of slots examined (telemetry).
  std::uint32_t lookup(std::uint32_t set, std::uint64_t block,
                       std::uint32_t* probes = nullptr) const noexcept {
    const std::uint16_t* ways = &way_[slot_base(set)];
    const std::uint64_t* keys = &key_[slot_base(set)];
    std::uint32_t i = home(block);
    std::uint32_t n = 1;
    while (ways[i] != kEmpty) {
      if (keys[i] == block) {
        if (probes != nullptr) *probes = n;
        return ways[i];
      }
      i = (i + 1) & slot_mask_;
      ++n;
    }
    if (probes != nullptr) *probes = n;
    return kNotFound;
  }

  /// Records that `block` is now resident in (`set`, `way`). The block must
  /// not already be present in the set (the caller looked it up first).
  void insert(std::uint32_t set, std::uint64_t block, std::uint32_t way);

  /// Removes `block` from `set` (line eviction/invalidation). The block must
  /// be present — entries mirror valid lines exactly.
  void erase(std::uint32_t set, std::uint64_t block);

  /// Drops every entry (cache flush).
  void clear();

  /// Slots per set (sizing/introspection).
  std::uint32_t capacity_per_set() const noexcept { return slot_mask_ + 1; }

  /// Entries currently stored across all sets (tests/invariant checks).
  std::uint64_t size() const noexcept;

 private:
  static constexpr std::uint16_t kEmpty = 0xFFFF;

  std::size_t slot_base(std::uint32_t set) const noexcept {
    return static_cast<std::size_t>(set) << log2_cap_;
  }
  /// Home slot of `block` within a set: Fibonacci multiplicative hash, top
  /// bits (the low block bits are the set index, so they carry no entropy
  /// within a set; the multiply spreads the rest).
  std::uint32_t home(std::uint64_t block) const noexcept {
    return static_cast<std::uint32_t>((block * 0x9E3779B97F4A7C15ull) >>
                                      hash_shift_);
  }

  std::uint32_t slot_mask_;  // capacity_per_set - 1
  std::uint32_t log2_cap_;
  std::uint32_t hash_shift_;  // 64 - log2_cap_
  std::vector<std::uint64_t> key_;   // sets x capacity_per_set
  std::vector<std::uint16_t> way_;   // kEmpty marks a free slot
};

}  // namespace capart::mem
