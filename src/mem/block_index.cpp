#include "src/mem/block_index.hpp"

#include <algorithm>

#include "src/common/check.hpp"

namespace capart::mem {

BlockWayIndex::BlockWayIndex(std::uint32_t sets, std::uint32_t ways) {
  CAPART_CHECK(sets > 0 && ways > 0, "block index needs sets and ways");
  // Way indices stay below kEmpty, the free-slot marker.
  CAPART_CHECK(ways <= kEmpty, "way count exceeds index encoding");
  // Capacity next_pow2(2 * ways) caps the load factor at 0.5, which keeps
  // linear-probe chains short (expected < 2 probes).
  const std::uint32_t cap = std::bit_ceil(2 * ways);
  log2_cap_ = static_cast<std::uint32_t>(std::countr_zero(cap));
  slot_mask_ = cap - 1;
  hash_shift_ = 64 - log2_cap_;
  const std::size_t slots = static_cast<std::size_t>(sets) * cap;
  key_.assign(slots, 0);
  way_.assign(slots, kEmpty);
}

void BlockWayIndex::insert(std::uint32_t set, std::uint64_t block,
                           std::uint32_t way) {
  const std::size_t base = slot_base(set);
  std::uint32_t i = home(block);
  while (way_[base + i] != kEmpty) {
    CAPART_DCHECK(key_[base + i] != block,
                  "block index: duplicate insert in set");
    i = (i + 1) & slot_mask_;
  }
  key_[base + i] = block;
  way_[base + i] = static_cast<std::uint16_t>(way);
}

void BlockWayIndex::erase(std::uint32_t set, std::uint64_t block) {
  const std::size_t base = slot_base(set);
  std::uint32_t i = home(block);
  while (true) {
    CAPART_DCHECK(way_[base + i] != kEmpty,
                  "block index: erasing an absent block");
    if (way_[base + i] == kEmpty) return;  // defensive in release builds
    if (key_[base + i] == block) break;
    i = (i + 1) & slot_mask_;
  }
  // Backward-shift deletion: pull every displaced successor of the probe
  // chain into the hole so lookups never need tombstones.
  std::uint32_t hole = i;
  std::uint32_t j = i;
  while (true) {
    j = (j + 1) & slot_mask_;
    if (way_[base + j] == kEmpty) break;
    const std::uint32_t h = home(key_[base + j]);
    // Move j into the hole when its home position lies cyclically at or
    // before the hole (the entry could legally live there).
    if (((j - h) & slot_mask_) >= ((j - hole) & slot_mask_)) {
      key_[base + hole] = key_[base + j];
      way_[base + hole] = way_[base + j];
      hole = j;
    }
  }
  way_[base + hole] = kEmpty;
}

void BlockWayIndex::clear() {
  std::fill(way_.begin(), way_.end(), kEmpty);
}

std::uint64_t BlockWayIndex::size() const noexcept {
  std::uint64_t n = 0;
  for (std::uint16_t w : way_) n += (w != kEmpty) ? 1 : 0;
  return n;
}

}  // namespace capart::mem
