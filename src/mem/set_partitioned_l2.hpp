// Set partitioning via OS page coloring — the software-only alternative
// mechanism to §V's way partitioning (paper §II cites Lin et al., HPCA'08,
// and Zhang et al., EuroSys'09).
//
// The cache's sets are grouped into *colors*; the OS assigns each thread a
// set of colors and maps the thread's pages into them, so capacity is
// partitioned by sets instead of ways. Differences from way partitioning
// that this model captures:
//
//  * ownership is per *page*, assigned at first touch (the common OpenMP
//    placement policy): pages shared between threads land in whichever
//    thread's colors the first toucher owned — sharing punches holes in the
//    isolation, a known weakness of coloring;
//  * repartitioning means *recoloring*: when targets change, the affected
//    pages remap to new sets and their cached lines are stranded (they age
//    out as garbage), so the transition cost is paid in capacity — unlike
//    the replacement-policy mechanism, which migrates gradually for free;
//  * each thread keeps the cache's full associativity within its colors.
//
// The organization implements the same target interface as the
// way-partitioned L2 — targets are counted in colors, and `total_ways()`
// reports the color count; make_l2 pairs one color per way (64 colors with
// the 64-way cache), so the partitioning policies drive it unchanged.
//
// Only the page-coloring machinery lives here; line storage, replacement
// (`CacheGeometry::repl`), and statistics delegate to `CacheCore` in its
// kSetColoring mode, where isolation comes entirely from the block->set
// mapping and victim choice within a set is unconstrained.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/l2_organization.hpp"

namespace capart::mem {

/// The coloring granularity make_l2 uses: 4 KB pages.
inline constexpr std::uint32_t kColoringPageBytes = 4096;

class SetPartitionedL2 final : public L2Organization {
 public:
  /// `colors` must divide the set count and be at least the thread count;
  /// `page_bytes` is the coloring granularity, a multiple of the line size.
  SetPartitionedL2(const CacheGeometry& geometry, ThreadId num_threads,
                   std::uint32_t colors, std::uint32_t page_bytes);

  bool access(ThreadId thread, Addr addr, AccessType type) override;
  bool partitionable() const noexcept override { return true; }

  /// Installs new per-thread *color* targets (one per thread, each >= 1,
  /// summing to the color count). Colors move between threads immediately
  /// and every affected page is recolored; the stranded lines of recolored
  /// pages stay in their old sets until evicted (the recoloring cost).
  void set_targets(std::span<const std::uint32_t> targets) override;

  std::vector<std::uint32_t> current_targets() const override {
    return targets_;
  }
  const CacheStats& stats() const noexcept override { return core_.stats(); }
  /// The color count: the way-based policies drive colors unchanged.
  std::uint32_t total_ways() const noexcept override { return colors_; }
  ThreadId num_threads() const noexcept override { return num_threads_; }
  L2Mode mode() const noexcept override {
    return L2Mode::kSetPartitionedShared;
  }
  CacheCore::LookupStats lookup_stats() const noexcept override {
    return core_.lookup_stats();
  }

  /// Colors currently assigned to `thread` (introspection/tests).
  std::vector<std::uint32_t> colors_of(ThreadId thread) const;

  /// True when the block containing `addr` is resident in the set its
  /// current coloring maps it to.
  bool contains(Addr addr) const;

 private:
  struct PageInfo {
    ThreadId owner = kNoThread;
    std::uint32_t color = 0;
  };

  /// Recomputes the color -> thread assignment from targets_ (contiguous
  /// ranges, deterministic) and recolors every known page.
  void assign_colors();

  /// Set index for `block` under page `info`.
  std::uint32_t set_of(std::uint64_t block, const PageInfo& info) const;

  /// Page of a block, and the page's info (created on first touch).
  PageInfo& page_of(ThreadId toucher, std::uint64_t block);

  ThreadId num_threads_;
  std::uint32_t colors_;
  std::uint32_t sets_per_color_;
  std::uint64_t blocks_per_page_;
  std::vector<std::uint32_t> targets_;       // colors per thread
  std::vector<ThreadId> color_owner_;        // color -> thread
  std::vector<std::vector<std::uint32_t>> thread_colors_;  // thread -> colors
  std::unordered_map<std::uint64_t, PageInfo> pages_;
  std::vector<std::uint64_t> next_color_slot_;  // round-robin per thread
  CacheCore core_;
};

}  // namespace capart::mem
