// The one cache class of the simulator: every private L1, private-L2 slice,
// shared-L2 bank and the coloring organization's sets are a `CacheCore`.
// It is built along two orthogonal axes:
//
//   * replacement — a pluggable `ReplacementPolicy` (true LRU / tree-PLRU /
//     SRRIP) with compact per-set metadata, selected via
//     `CacheGeometry::repl`;
//   * enforcement — how partitioning constrains victim choice
//     (`PartitionEnforcement`): none, way partitioning by eviction control
//     (paper §V), way partitioning by flush-reconfiguration (the alternative
//     §V argues against), set partitioning (the coloring organization maps
//     blocks to sets itself and victimizes globally within the set), or
//     CAT-style way masks.
//
// Tag lookup — finding the resident way of a block — is mechanical: a
// linear scan over the ways at small associativities, the incremental
// block->way hash index of block_index.hpp from 16 ways up
// (use_block_index). It never affects which line hits or which way is
// victimized, only the cost of finding out. tests/reference_cache.hpp
// models the same semantics naively, and tests/test_reference_cache.cpp
// holds every mode of this class to it.
//
// Line metadata is struct-of-arrays with validity folded into the tag array
// (kInvalidTag marks an empty way — see replacement.hpp), so the scan probe
// reads one contiguous run of 64-bit tags per set (simd::find_tag, the
// first-match loop of simd.hpp); the separate per-line arrays (dirty,
// owner, last accessor) are only touched on the outcome paths that need
// them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/types.hpp"
#include "src/mem/block_index.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/clos.hpp"
#include "src/mem/replacement.hpp"

namespace capart::mem {

/// How partitioning constrains the victim search.
enum class PartitionEnforcement : std::uint8_t {
  /// Global replacement; targets are recorded but never enforced.
  kNone,
  /// Paper §V: a thread below its way target evicts the policy victim among
  /// *foreign* lines, a thread at/above target among its *own* lines. The
  /// partition drifts toward the targets; no line is ever flushed.
  kWayEvictionControl,
  /// Retargeting immediately invalidates the shrinking threads' policy
  /// victims down to the new per-set target ("considerable loss of data
  /// during the reconfiguration"); replacement otherwise behaves like
  /// eviction control.
  kWayFlushReconfigure,
  /// Set partitioning: isolation comes from the caller's block->set mapping
  /// (page coloring), so victim choice within a set is unconstrained.
  kSetColoring,
  /// CAT-style way masks (Intel RDT / pmctrack `intel_rdt` semantics): each
  /// thread fills and victimizes only within its CLOS's contiguous way
  /// range (set_way_ranges); hits anywhere remain unrestricted, and a mask
  /// change never flushes — lines outside the new mask stay resident until
  /// naturally evicted, exactly the way-bouncing behaviour of the hardware.
  kClosWayMask,
};

std::string_view to_string(PartitionEnforcement enforcement) noexcept;

class CacheCore {
 public:
  struct AccessResult {
    bool hit = false;
    /// Previous toucher of the line differed (hit) — constructive sharing.
    bool inter_thread_hit = false;
    /// A valid line last touched by another thread was evicted.
    bool inter_thread_eviction = false;
  };

  /// Tag-lookup telemetry: how many lookups ran and how many slots (hash) or
  /// ways (scan) each examined. Published as the l2/lookup_* metrics.
  struct LookupStats {
    std::uint64_t lookups = 0;
    /// Total slots/ways examined across all lookups.
    std::uint64_t probed_slots = 0;
    /// Histogram-ish probe-length buckets: 1, 2, 3-4, 5-8, >8.
    std::array<std::uint64_t, 5> probe_len_hist{};

    LookupStats& operator+=(const LookupStats& o) noexcept {
      lookups += o.lookups;
      probed_slots += o.probed_slots;
      for (std::size_t b = 0; b < probe_len_hist.size(); ++b) {
        probe_len_hist[b] += o.probe_len_hist[b];
      }
      return *this;
    }
  };

  /// The replacement policy is taken from `geometry.repl`.
  CacheCore(const CacheGeometry& geometry, ThreadId num_threads,
            PartitionEnforcement enforcement);

  /// One access by `thread` to the set `geometry().set_of_block(block)`.
  AccessResult access(ThreadId thread, Addr addr, AccessType type);

  /// One access with a caller-supplied set index (the coloring organization
  /// maps blocks to sets through page ownership instead of the address
  /// bits).
  AccessResult access_in_set(ThreadId thread, std::uint64_t block,
                             std::uint32_t set, AccessType type);

  /// Installs new per-thread way targets (one per thread, each >= 1, summing
  /// to the way count). Only meaningful under way enforcement; under
  /// kWayFlushReconfigure shrinking threads immediately lose their policy
  /// victims down to the new per-set target.
  void set_targets(std::span<const std::uint32_t> targets);

  /// Installs per-thread contiguous way masks (one per thread, each at least
  /// one way wide, within the geometry). Only valid under kClosWayMask.
  /// Nothing is flushed: lines outside a thread's new mask remain resident
  /// and hittable until evicted by the threads now filling those ways.
  void set_way_ranges(std::span<const WayMask> per_thread);

  /// Mask of `thread` under kClosWayMask (full cache before the first
  /// set_way_ranges call).
  const WayMask& way_range(ThreadId thread) const {
    CAPART_CHECK(enforcement_ == PartitionEnforcement::kClosWayMask &&
                     thread < ranges_.size(),
                 "way_range: not under clos enforcement");
    return ranges_[thread];
  }

  /// Lines invalidated by the most recent set_targets() (always 0 outside
  /// kWayFlushReconfigure).
  std::uint64_t flushed_on_last_retarget() const noexcept {
    return flushed_on_last_retarget_;
  }

  /// Drops all contents and replacement state (stats are kept).
  void flush();

  /// True when `block` is resident in the address-mapped set.
  bool contains(Addr addr) const noexcept;

  /// True when `block` is resident in `set` (coloring organization lookup).
  bool contains_block_in_set(std::uint64_t block,
                             std::uint32_t set) const noexcept;

  /// Lines currently owned by `thread` in set `set` (test/introspection).
  std::uint32_t owned_in_set(std::uint32_t set, ThreadId thread) const;

  /// Lines currently owned by `thread` across all sets.
  std::uint64_t owned_total(ThreadId thread) const;

  std::span<const std::uint32_t> targets() const noexcept { return targets_; }
  const CacheStats& stats() const noexcept { return stats_; }
  const CacheGeometry& geometry() const noexcept { return geometry_; }
  ThreadId num_threads() const noexcept { return num_threads_; }
  PartitionEnforcement enforcement() const noexcept { return enforcement_; }
  ReplacementKind replacement_kind() const noexcept { return repl_->kind(); }
  const LookupStats& lookup_stats() const noexcept { return lookup_stats_; }

 private:
  std::size_t line_index(std::uint32_t set, std::uint32_t way) const noexcept {
    return static_cast<std::size_t>(set) * geometry_.ways + way;
  }
  std::uint16_t& owned(std::uint32_t set, ThreadId t) noexcept {
    return owned_[static_cast<std::size_t>(set) * num_threads_ + t];
  }
  std::uint16_t owned(std::uint32_t set, ThreadId t) const noexcept {
    return owned_[static_cast<std::size_t>(set) * num_threads_ + t];
  }

  /// Victim way for a miss by `thread` in `set`: first invalid way, else the
  /// replacement policy's pick within the enforcement-permitted scope.
  std::uint32_t choose_victim(std::uint32_t set, ThreadId thread);

  /// Resident way of `block` in `set` via the index or the scan, or
  /// BlockWayIndex::kNotFound; `probes` receives the slots/ways examined.
  std::uint32_t find_way(std::uint32_t set, std::uint64_t block,
                         std::uint32_t& probes) const noexcept;

  /// Lookup telemetry bucket for a probe chain of `n` slots/ways.
  static constexpr std::size_t probe_bucket(std::uint32_t n) noexcept {
    return n <= 1 ? 0 : n == 2 ? 1 : n <= 4 ? 2 : n <= 8 ? 3 : 4;
  }

  void note_lookup(std::uint32_t probes) noexcept {
    ++lookup_stats_.lookups;
    lookup_stats_.probed_slots += probes;
    ++lookup_stats_.probe_len_hist[probe_bucket(probes)];
  }

  /// Invalidates the valid line (set, way), keeping the block index, fill
  /// count and ownership counters consistent (retarget flush path).
  void invalidate_line(std::uint32_t set, std::uint32_t way);

  CacheGeometry geometry_;
  ThreadId num_threads_;
  PartitionEnforcement enforcement_;
  /// Single-thread cache outside CLOS enforcement (every private L1 and
  /// private-L2 slice). The sharing checks and the owner/accessor/ownership
  /// bookkeeping are then vacuous — the sole thread owns and last-touched
  /// every valid line — so access_in_set takes a lean path that skips them
  /// and choose_victim collapses every enforcement scope to kAnyValid
  /// (bit-identical: with one thread all scopes admit exactly the valid
  /// lines). owned_in_set/owned_total derive from fill counts instead.
  bool mono_ = false;
  std::unique_ptr<ReplacementPolicy> repl_;
  /// repl_'s LruList when the policy is true LRU (the default), else null:
  /// the per-access touch then inlines instead of dispatching virtually.
  LruList* lru_fast_ = nullptr;
  // Line storage, struct-of-arrays, set-major (`sets * ways` each): the hit
  // scan touches only tags_ (kInvalidTag = empty way, so no validity array
  // rides along), the victim filter only tags_/owner_.
  std::vector<std::uint64_t> tags_;
  std::vector<ThreadId> owner_;          ///< inserting thread
  std::vector<ThreadId> last_accessor_;  ///< most recent toucher
  std::vector<std::uint8_t> dirty_;      ///< eviction costs a writeback
  std::vector<std::uint16_t> owned_;     // sets * num_threads
  /// Valid lines per set; skips the invalid-way scan once a set is full
  /// (the steady state) and bounds the first-invalid search otherwise.
  std::vector<std::uint16_t> fill_count_;
  /// Per-thread total of owned lines across all sets, maintained on
  /// fill/evict/flush so owned_total() is O(1) instead of an O(sets) sweep.
  std::vector<std::uint64_t> owned_totals_;
  /// Block->way index (only where use_block_index(ways)); mirrors the
  /// valid lines exactly — see block_index.hpp for the invariant.
  std::unique_ptr<BlockWayIndex> index_;
  std::vector<std::uint32_t> targets_;
  /// Per-thread CLOS way masks (kClosWayMask only; empty otherwise).
  std::vector<WayMask> ranges_;
  CacheStats stats_;
  LookupStats lookup_stats_;
  std::uint64_t flushed_on_last_retarget_ = 0;
};

}  // namespace capart::mem
