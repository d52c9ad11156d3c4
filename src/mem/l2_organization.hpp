// The L2 organizations the paper compares (§IV-A2, §VII-B), behind one
// interface:
//
//   * BankedL2         — one shared cache, unpartitioned (global
//                        replacement), way-partitioned by §V eviction
//                        control, by flush-reconfiguration, or by CAT-style
//                        CLOS masks; at any bank count (banked_l2.hpp);
//   * PrivateL2        — per-thread slices of ways/num_threads ways each
//                        (no sharing, data replication across slices; also
//                        the paper's stand-in for fairness-optimal schemes);
//   * SetPartitionedL2 — set partitioning by OS page coloring
//                        (set_partitioned_l2.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/clos.hpp"

namespace capart::mem {

enum class L2Mode : std::uint8_t {
  kSharedUnpartitioned,
  kPartitionedShared,
  kPrivatePerThread,
  /// Way partitioning by flush-reconfiguration — the hardware alternative
  /// paper §V rejects; exists to quantify that argument (abl_reconfigure).
  kFlushReconfigureShared,
  /// Set partitioning via OS page coloring (related-work mechanism, Lin et
  /// al.); targets are counted in colors, one color per way by default so
  /// the partitioning policies apply unchanged.
  kSetPartitionedShared,
};

std::string_view to_string(L2Mode mode) noexcept;

/// How a way-partitioned shared L2 enforces its partition (--l2-enforce).
enum class L2Enforce : std::uint8_t {
  /// Whatever the L2 mode implies (eviction control for the partitioned
  /// mode, flush for the flush-reconfigure mode, nothing for the rest).
  kModeDefault,
  /// Explicitly the paper's §V eviction control (same as the partitioned
  /// mode's default; named for symmetry on the command line).
  kEvictionControl,
  /// CAT-style CLOS way masks: a small budget of contiguous way masks that
  /// threads are clustered onto — the commodity-hardware enforcement
  /// (Intel RDT semantics; see src/mem/clos.hpp). Requires the partitioned
  /// shared mode and supports more threads than ways.
  kClosWayMask,
};

std::string_view to_string(L2Enforce enforce) noexcept;

/// Parses "default" / "eviction-control" / "clos"; returns false otherwise.
bool parse_l2_enforce(std::string_view name, L2Enforce& out) noexcept;

/// Uniform interface the CMP system and the runtime use for the L2 level.
class L2Organization {
 public:
  virtual ~L2Organization() = default;

  /// One access by `thread`; returns true on hit (fills on miss).
  virtual bool access(ThreadId thread, Addr addr, AccessType type) = 0;

  /// Whether set_targets() has any effect.
  virtual bool partitionable() const noexcept = 0;

  /// Installs per-thread way targets; no-op for non-partitionable modes.
  virtual void set_targets(std::span<const std::uint32_t> targets) = 0;

  /// Current per-thread way targets (fixed equal split where not applicable).
  virtual std::vector<std::uint32_t> current_targets() const = 0;

  virtual const CacheStats& stats() const noexcept = 0;
  virtual std::uint32_t total_ways() const noexcept = 0;
  virtual ThreadId num_threads() const noexcept = 0;
  virtual L2Mode mode() const noexcept = 0;

  /// Lines invalidated by the most recent set_targets (nonzero only for the
  /// flush-reconfiguring organization; the runtime charges stall for them).
  virtual std::uint64_t flushed_on_last_retarget() const noexcept {
    return 0;
  }

  /// Tag-lookup telemetry of the organization's cache structures (summed
  /// over private slices); published as the l2/lookup_* metrics.
  virtual CacheCore::LookupStats lookup_stats() const noexcept = 0;

  /// True when partitioning is enforced through CLOS way masks; the runtime
  /// then reconfigures through apply_clos_plan instead of set_targets.
  virtual bool clos_enforced() const noexcept { return false; }

  /// Installs a CLOS configuration and returns how many CLOS masks actually
  /// changed (the runtime charges the mask-update cost once per changed
  /// mask). Aborts on organizations without CLOS enforcement.
  virtual std::uint32_t apply_clos_plan(const ClosPlan& plan);

  /// The CLOS configuration in force, or nullptr without CLOS enforcement.
  virtual const ClosPlan* clos_plan() const noexcept { return nullptr; }
};

/// Structural options for make_l2 beyond the mode.
struct L2BuildOptions {
  /// Bank count of the shared structure; 0/1 = monolithic. Must be a power
  /// of two <= the set count. Only the shared way-granular modes bank; the
  /// private and coloring organizations ignore it.
  std::uint32_t banks = 1;
  L2Enforce enforce = L2Enforce::kModeDefault;
  /// Number of CLOSes when enforce == kClosWayMask.
  std::uint32_t clos_budget = 8;
};

/// Factory for the mode requested by an experiment configuration.
std::unique_ptr<L2Organization> make_l2(L2Mode mode,
                                        const CacheGeometry& geometry,
                                        ThreadId num_threads,
                                        const L2BuildOptions& opts = {});

/// Private per-thread L2 slices (ways split equally; each slice keeps the
/// full set count, mirroring the paper's ways-only capacity scaling).
class PrivateL2 final : public L2Organization {
 public:
  PrivateL2(const CacheGeometry& geometry, ThreadId num_threads);

  bool access(ThreadId thread, Addr addr, AccessType type) override;
  bool partitionable() const noexcept override { return false; }
  void set_targets(std::span<const std::uint32_t> targets) override;
  std::vector<std::uint32_t> current_targets() const override;
  const CacheStats& stats() const noexcept override { return stats_; }
  std::uint32_t total_ways() const noexcept override { return total_ways_; }
  ThreadId num_threads() const noexcept override {
    return static_cast<ThreadId>(slices_.size());
  }
  L2Mode mode() const noexcept override { return L2Mode::kPrivatePerThread; }

  CacheCore::LookupStats lookup_stats() const noexcept override {
    CacheCore::LookupStats total;
    for (const CacheCore& slice : slices_) total += slice.lookup_stats();
    return total;
  }

 private:
  std::vector<CacheCore> slices_;  ///< one single-thread cache per thread
  CacheStats stats_;
  std::uint32_t total_ways_;
};

}  // namespace capart::mem
