#include "src/mem/utility_monitor.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/mem/simd.hpp"

namespace capart::mem {

UtilityMonitor::UtilityMonitor(const CacheGeometry& geometry,
                               ThreadId num_threads,
                               std::uint32_t sampling_shift)
    : geometry_(geometry),
      num_threads_(num_threads),
      sampling_shift_(sampling_shift),
      sampled_sets_(geometry.sets >> sampling_shift) {
  geometry_.validate();
  CAPART_CHECK(num_threads_ >= 1, "utility monitor needs >= 1 thread");
  CAPART_CHECK(sampled_sets_ >= 1,
               "sampling shift leaves no sets to monitor");
  const std::size_t lines =
      static_cast<std::size_t>(sampled_sets_) * geometry_.ways;
  shadow_tags_.assign(num_threads_,
                      std::vector<std::uint64_t>(lines, kInvalidTag));
  shadow_order_.reserve(num_threads_);
  for (ThreadId t = 0; t < num_threads_; ++t) {
    shadow_order_.emplace_back(sampled_sets_, geometry_.ways);
  }
  if (use_block_index(geometry_.ways)) {
    shadow_index_.reserve(num_threads_);
    for (ThreadId t = 0; t < num_threads_; ++t) {
      shadow_index_.push_back(
          std::make_unique<BlockWayIndex>(sampled_sets_, geometry_.ways));
    }
  }
  shadow_fill_.assign(num_threads_,
                      std::vector<std::uint16_t>(sampled_sets_, 0));
  depth_hits_.assign(static_cast<std::size_t>(num_threads_) * geometry_.ways,
                     0);
  accesses_.assign(num_threads_, 0);
  misses_.assign(num_threads_, 0);
}

bool UtilityMonitor::sampled(std::uint64_t block,
                             std::uint32_t& shadow_set) const {
  const std::uint32_t set = geometry_.set_of_block(block);
  // Sample sets whose low bits are zero; the shadow index is the remaining
  // high bits, so sampled sets spread across the whole index space.
  const std::uint32_t mask = (1u << sampling_shift_) - 1;
  if ((set & mask) != 0) return false;
  shadow_set = set >> sampling_shift_;
  return true;
}

void UtilityMonitor::observe(ThreadId thread, Addr addr) {
  CAPART_DCHECK(thread < num_threads_, "utility monitor: thread out of range");
  const std::uint64_t block = geometry_.block_of(addr);
  std::uint32_t shadow_set = 0;
  if (!sampled(block, shadow_set)) return;
  CAPART_DCHECK(block != kInvalidTag,
                "utility monitor: block collides with the empty-way tag");
  ++accesses_[thread];
  std::uint64_t* depth_hits =
      &depth_hits_[static_cast<std::size_t>(thread) * geometry_.ways];
  const std::size_t base =
      static_cast<std::size_t>(shadow_set) * geometry_.ways;
  std::uint64_t* tags = &shadow_tags_[thread][base];
  LruList& order = shadow_order_[thread];

  // Tag lookup: the block->way index, or the contiguous probe over the
  // sentinel-tagged array. Bit-identical — a set holds at most one copy of
  // a block either way.
  BlockWayIndex* index =
      shadow_index_.empty() ? nullptr : shadow_index_[thread].get();
  std::uint32_t found;
  if (index != nullptr) {
    const std::uint32_t w = index->lookup(shadow_set, block);
    found = w != BlockWayIndex::kNotFound ? w : geometry_.ways;
  } else {
    found = simd::find_tag(tags, geometry_.ways, block);
  }
  if (found < geometry_.ways) {
    ++depth_hits[order.depth_of(shadow_set, found)];
    order.touch(shadow_set, found);
    return;
  }
  ++misses_[thread];
  // Victim: shadow lines are never invalidated and fills always take the
  // first invalid way, so the per-set fill count is exactly the first
  // invalid way; past that, the LRU way (all valid then, so the tail of the
  // recency list).
  std::uint16_t& filled = shadow_fill_[thread][shadow_set];
  std::uint32_t victim;
  if (filled < geometry_.ways) {
    victim = filled;
    ++filled;
  } else {
    victim = order.lru_way(shadow_set);
    if (index != nullptr) index->erase(shadow_set, tags[victim]);
  }
  tags[victim] = block;
  if (index != nullptr) index->insert(shadow_set, block, victim);
  order.touch(shadow_set, victim);
}

std::uint64_t UtilityMonitor::hits_at_depth(ThreadId thread,
                                            std::uint32_t depth) const {
  CAPART_CHECK(thread < num_threads_ && depth < geometry_.ways,
               "utility monitor: index out of range");
  return depth_hits_[static_cast<std::size_t>(thread) * geometry_.ways + depth];
}

std::uint64_t UtilityMonitor::sampled_accesses(ThreadId thread) const {
  CAPART_CHECK(thread < num_threads_, "utility monitor: thread out of range");
  return accesses_[thread];
}

std::uint64_t UtilityMonitor::sampled_misses(ThreadId thread) const {
  CAPART_CHECK(thread < num_threads_, "utility monitor: thread out of range");
  return misses_[thread];
}

double UtilityMonitor::predicted_misses(ThreadId thread,
                                        std::uint32_t ways) const {
  CAPART_CHECK(thread < num_threads_, "utility monitor: thread out of range");
  CAPART_CHECK(ways >= 1 && ways <= geometry_.ways,
               "utility monitor: ways out of range");
  const std::uint64_t* depth_hits =
      &depth_hits_[static_cast<std::size_t>(thread) * geometry_.ways];
  std::uint64_t would_miss = misses_[thread];
  for (std::uint32_t p = ways; p < geometry_.ways; ++p) {
    would_miss += depth_hits[p];
  }
  return static_cast<double>(would_miss) * scale();
}

void UtilityMonitor::reset_interval() {
  std::fill(depth_hits_.begin(), depth_hits_.end(), 0);
  std::fill(accesses_.begin(), accesses_.end(), 0);
  std::fill(misses_.begin(), misses_.end(), 0);
}

}  // namespace capart::mem
