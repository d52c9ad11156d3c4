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
// Each thread's directory is a single-thread, true-LRU CacheCore over the
// sampled sets, so its tag store, block index and victim rule are the cache
// core's own, checked once by the reference oracle.
//
// This substrate powers the measured-curve partitioning policy
// (core::UmonPolicy) and the abl_umon ablation, which compares learning
// curves by exploration (the paper's scheme) against measuring them.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"

namespace capart::mem {

class UtilityMonitor {
 public:
  /// The experiments' set sampling: every 8th set. A cache needs at least
  /// `1 << kSamplingShift` sets to leave one to monitor.
  static constexpr std::uint32_t kSamplingShift = 3;

  /// Monitors threads of a cache with `geometry`, sampling every
  /// `2^sampling_shift`-th set (0 monitors every set).
  UtilityMonitor(const CacheGeometry& geometry, ThreadId num_threads,
                 std::uint32_t sampling_shift = kSamplingShift);

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

 private:
  CacheGeometry geometry_;
  ThreadId num_threads_;
  std::uint32_t sampling_shift_;
  std::uint32_t sampled_sets_;
  /// Per thread, the shadow directory: a single-thread CacheCore of the
  /// sampled sets at the monitored associativity, true LRU whatever policy
  /// the monitored cache runs (the directory is LRU by definition). A hit's
  /// stack depth is what recency_access returns.
  std::vector<CacheCore> shadows_;
  // Interval counters.
  std::vector<std::uint64_t> depth_hits_;  // [thread * ways + depth]
  std::vector<std::uint64_t> accesses_;    // [thread]
  std::vector<std::uint64_t> misses_;      // [thread]
};

}  // namespace capart::mem
