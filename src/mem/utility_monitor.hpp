// Shadow-tag utility monitor (UMON).
//
// The paper's runtime learns CPI-vs-ways curves by observing executed
// intervals at whatever allocation happened to be in force. The monitoring
// hardware proposed by Suh et al. (the paper's refs [28], [29]) measures the
// whole curve directly: an auxiliary LRU tag directory with the cache's full
// associativity, maintained per thread over a sampled subset of sets and
// *unaffected by partitioning*, records at which LRU stack position every
// hit lands. A hit at stack position p (0 = MRU) would have been a hit under
// any allocation of more than p ways, so
//
//   predicted_misses(w) = shadow_misses + sum_{p >= w} hits[p]
//
// scaled by the set-sampling factor. Set sampling keeps the hardware cost
// negligible (dynamic set sampling: a few dozen sets predict the whole
// cache's behaviour).
//
// This substrate powers the measured-curve partitioning policy
// (core::UmonPolicy) and the abl_umon ablation, which compares learning
// curves by exploration (the paper's scheme) against measuring them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/block_index.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/replacement.hpp"

namespace capart::mem {

class UtilityMonitor {
 public:
  /// Monitors threads of a cache with `geometry`, sampling every
  /// `2^sampling_shift`-th set (0 monitors every set).
  UtilityMonitor(const CacheGeometry& geometry, ThreadId num_threads,
                 std::uint32_t sampling_shift = 3);

  /// Feeds one access by `thread`; cheap no-op for unsampled sets.
  void observe(ThreadId thread, Addr addr);

  /// Hits (since the last interval reset) that landed at LRU stack position
  /// `depth` (0 = MRU) in the thread's shadow directory, raw (unscaled).
  std::uint64_t hits_at_depth(ThreadId thread, std::uint32_t depth) const;

  /// Raw sampled accesses / misses since the last interval reset.
  std::uint64_t sampled_accesses(ThreadId thread) const;
  std::uint64_t sampled_misses(ThreadId thread) const;

  /// Estimated misses over the whole cache for the last interval if `thread`
  /// had run alone with `ways` ways (scaled by the sampling factor).
  double predicted_misses(ThreadId thread, std::uint32_t ways) const;

  /// Clears the interval counters (shadow tags persist — they model
  /// hardware state, which no one flushes between intervals).
  void reset_interval();

  std::uint32_t sampled_sets() const noexcept { return sampled_sets_; }
  /// Deepest way the shadow directory can predict for (the monitored
  /// cache's associativity); callers running in a larger virtual way space
  /// clamp their queries here.
  std::uint32_t monitored_ways() const noexcept { return geometry_.ways; }
  double scale() const noexcept {
    return static_cast<double>(geometry_.sets) /
           static_cast<double>(sampled_sets_);
  }
  /// The tag-lookup mechanism of the shadow directories (follows the
  /// monitored cache's `CacheGeometry::index`, kAuto resolved).
  IndexKind index_kind() const noexcept { return index_kind_; }

 private:
  /// Index into the per-thread shadow directory, or sets_ when unsampled.
  bool sampled(std::uint64_t block, std::uint32_t& shadow_set) const;

  CacheGeometry geometry_;
  ThreadId num_threads_;
  std::uint32_t sampling_shift_;
  std::uint32_t sampled_sets_;
  IndexKind index_kind_;
  // Per thread: shadow tags (sampled_sets x ways; kInvalidTag marks an empty
  // way, same sentinel layout as the cache core, so the probe is the
  // vectorized contiguous compare of simd.hpp) plus a compact recency
  // permutation — the directory is LRU by definition, whatever policy the
  // monitored cache runs, so the hit's stack depth is an O(1) position
  // lookup — and interval counters.
  std::vector<std::vector<std::uint64_t>> shadow_tags_;
  std::vector<LruStack> shadow_order_;
  /// Per-thread block->way index over the shadow directory (kHash only);
  /// shadow lines are never invalidated, so entries are only ever replaced.
  std::vector<std::unique_ptr<BlockWayIndex>> shadow_index_;
  /// Valid lines per shadow set, per thread: shadow fills always take the
  /// first invalid way and nothing is ever invalidated, so the fill count
  /// *is* the first invalid way — no scan needed (both mechanisms).
  std::vector<std::vector<std::uint16_t>> shadow_fill_;
  std::vector<std::uint64_t> depth_hits_;  // [thread * ways + depth]
  std::vector<std::uint64_t> accesses_;    // [thread]
  std::vector<std::uint64_t> misses_;      // [thread]
};

}  // namespace capart::mem
