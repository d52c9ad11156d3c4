// The shared way-granular L2: shared unpartitioned, §V eviction control,
// flush-reconfiguration and CAT-style CLOS masks, at any bank count.
//
// A many-core shared cache is physically sliced: N banks, each a complete
// set-associative structure holding 1/N of the sets, selected by the low
// bits of the set index (line interleaving). This file provides that
// organization over per-bank `CacheCore`s while keeping the *logical*
// behaviour of one monolithic cache: the bank-select bits partition the
// sets, every global set maps to exactly one (bank, in-bank set), and all
// per-set replacement and enforcement state is per-set anyway — so for any
// power-of-two bank count the hit/miss/victim sequence is bit-identical to a
// single bank (tests/test_reference_cache.cpp holds 1, 2 and 8 banks to one
// naive monolithic model). Banking therefore changes the *timing* (bank
// conflicts, modeled by the CMP system's contention model, which hashes
// banks the same way) and the *introspection* (per-bank stats), never the
// contents. The monolithic cache is the one-bank case.
//
// Under CLOS enforcement (`PartitionEnforcement::kClosWayMask`) way masks
// are global (every bank enforces the same per-CLOS contiguous mask, as real
// CAT does per-slice), so a mask update is broadcast to all banks but
// counted once per changed CLOS — matching the per-MSR-write cost of real
// hardware.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/clos.hpp"
#include "src/mem/l2_organization.hpp"

namespace capart::mem {

class BankedL2 final : public L2Organization {
 public:
  /// `banks` must be a nonzero power of two not exceeding the set count.
  /// `enforcement` is kNone, kWayEvictionControl, kWayFlushReconfigure or
  /// kClosWayMask; under kClosWayMask partitioning goes through
  /// `clos_budget` CLOS way masks, initialized round-robin. Per-thread way
  /// targets keep >= 1 way per thread, so the two way-target enforcements
  /// throw ConfigError when threads outnumber ways.
  BankedL2(const CacheGeometry& geometry, ThreadId num_threads,
           std::uint32_t banks, PartitionEnforcement enforcement,
           std::uint32_t clos_budget = 0);

  bool access(ThreadId thread, Addr addr, AccessType type) override;
  bool partitionable() const noexcept override;
  void set_targets(std::span<const std::uint32_t> targets) override;
  std::vector<std::uint32_t> current_targets() const override;
  const CacheStats& stats() const noexcept override;
  std::uint32_t total_ways() const noexcept override { return geometry_.ways; }
  ThreadId num_threads() const noexcept override { return num_threads_; }
  L2Mode mode() const noexcept override;
  std::uint64_t flushed_on_last_retarget() const noexcept override;
  CacheCore::LookupStats lookup_stats() const noexcept override;

  bool clos_enforced() const noexcept override {
    return enforcement_ == PartitionEnforcement::kClosWayMask;
  }
  std::uint32_t apply_clos_plan(const ClosPlan& plan) override;
  const ClosPlan* clos_plan() const noexcept override {
    return clos_enforced() ? &plan_ : nullptr;
  }

  std::uint32_t bank_count() const noexcept {
    return static_cast<std::uint32_t>(banks_.size());
  }
  /// Bank `b`'s core (per-bank stats, geometry, introspection).
  const CacheCore& bank(std::uint32_t b) const;
  /// Bank and in-bank set of `addr` (tests and the contention model).
  std::uint32_t bank_of(Addr addr) const noexcept;

 private:
  /// Installs plan_'s masks into every bank (no update accounting).
  void install_masks();

  CacheGeometry geometry_;  ///< the full (logical) cache
  ThreadId num_threads_;
  PartitionEnforcement enforcement_;
  std::uint32_t bank_mask_;   ///< bank count - 1
  std::uint32_t bank_shift_;  ///< log2(bank count)
  std::vector<CacheCore> banks_;
  ClosPlan plan_;             ///< meaningful only under CLOS enforcement
  mutable CacheStats agg_;    ///< lazily recomputed aggregate of the banks
};

}  // namespace capart::mem
