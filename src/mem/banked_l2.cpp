#include "src/mem/banked_l2.hpp"

#include <bit>
#include <string>

#include "src/common/check.hpp"
#include "src/common/error.hpp"

namespace capart::mem {

namespace {

CacheGeometry bank_geometry(const CacheGeometry& full, std::uint32_t banks) {
  CAPART_CHECK(banks >= 1 && std::has_single_bit(banks),
               "bank count must be a nonzero power of two");
  CAPART_CHECK(banks <= full.sets, "more banks than sets");
  CacheGeometry g = full;
  g.sets = full.sets / banks;
  return g;
}

}  // namespace

BankedL2::BankedL2(const CacheGeometry& geometry, ThreadId num_threads,
                   std::uint32_t banks, PartitionEnforcement enforcement,
                   std::uint32_t clos_budget)
    : geometry_(geometry),
      num_threads_(num_threads),
      enforcement_(enforcement),
      bank_mask_(banks - 1),
      bank_shift_(
          static_cast<std::uint32_t>(std::bit_width(banks) - 1)),
      agg_(num_threads) {
  geometry_.validate();
  CAPART_CHECK(num_threads_ > 0, "banked L2 needs >= 1 thread");
  const bool way_targets =
      enforcement_ == PartitionEnforcement::kWayEvictionControl ||
      enforcement_ == PartitionEnforcement::kWayFlushReconfigure;
  // Thread/way mismatch is user-reachable configuration (--threads beyond
  // --l2-ways), so it throws a recoverable ConfigError instead of aborting;
  // CLOS enforcement is the organization that does support threads > ways.
  if (way_targets && num_threads_ > geometry_.ways) {
    throw ConfigError(
        "l2-ways",
        "more threads (" + std::to_string(num_threads_) + ") than ways (" +
            std::to_string(geometry_.ways) +
            "): per-thread way targets keep >= 1 way per thread; use "
            "--l2-enforce=clos to cluster threads onto CLOS way masks");
  }
  const CacheGeometry slice = bank_geometry(geometry_, banks);
  banks_.reserve(banks);
  for (std::uint32_t b = 0; b < banks; ++b) {
    banks_.emplace_back(slice, num_threads_, enforcement_);
  }
  if (clos_enforced()) {
    CAPART_CHECK(clos_budget >= 1 && clos_budget <= geometry_.ways,
                 "clos budget must be in [1, ways]");
    plan_ = initial_clos_plan(geometry_.ways, num_threads_, clos_budget);
    install_masks();
  }
}

bool BankedL2::access(ThreadId thread, Addr addr, AccessType type) {
  // The low bits of the global set index select the bank (line
  // interleaving, matching the contention model's block % banks hash); the
  // remaining bits index within the bank. Every global set maps to exactly
  // one (bank, in-bank set), so contents are bit-identical to a monolithic
  // cache for any power-of-two bank count.
  //
  // One bank (the default) is taken without consulting the address, so the
  // core's fields load while the set index is still being computed.
  if (bank_mask_ == 0) return banks_.front().access(thread, addr, type).hit;
  const std::uint64_t block = geometry_.block_of(addr);
  const std::uint32_t gset = geometry_.set_of_block(block);
  return banks_[gset & bank_mask_]
      .access_in_set(thread, block, gset >> bank_shift_, type)
      .hit;
}

bool BankedL2::partitionable() const noexcept {
  return enforcement_ != PartitionEnforcement::kNone;
}

void BankedL2::set_targets(std::span<const std::uint32_t> targets) {
  CAPART_CHECK(!clos_enforced(),
               "set_targets on a CLOS-enforced L2; use apply_clos_plan");
  if (enforcement_ == PartitionEnforcement::kNone) return;
  for (CacheCore& bank : banks_) bank.set_targets(targets);
}

std::vector<std::uint32_t> BankedL2::current_targets() const {
  if (clos_enforced()) {
    // A thread's effective allocation is the width of its CLOS's mask.
    std::vector<std::uint32_t> widths(num_threads_);
    for (ThreadId t = 0; t < num_threads_; ++t) {
      widths[t] = plan_.masks[plan_.clos_of[t]].nr_ways;
    }
    return widths;
  }
  const auto targets = banks_.front().targets();
  return {targets.begin(), targets.end()};
}

const CacheStats& BankedL2::stats() const noexcept {
  if (banks_.size() == 1) return banks_.front().stats();
  agg_.reset();
  for (const CacheCore& bank : banks_) agg_.accumulate(bank.stats());
  return agg_;
}

L2Mode BankedL2::mode() const noexcept {
  switch (enforcement_) {
    case PartitionEnforcement::kNone: return L2Mode::kSharedUnpartitioned;
    case PartitionEnforcement::kWayFlushReconfigure:
      return L2Mode::kFlushReconfigureShared;
    default: return L2Mode::kPartitionedShared;
  }
}

std::uint64_t BankedL2::flushed_on_last_retarget() const noexcept {
  std::uint64_t flushed = 0;
  for (const CacheCore& bank : banks_) {
    flushed += bank.flushed_on_last_retarget();
  }
  return flushed;
}

CacheCore::LookupStats BankedL2::lookup_stats() const noexcept {
  CacheCore::LookupStats total;
  for (const CacheCore& bank : banks_) total += bank.lookup_stats();
  return total;
}

std::uint32_t BankedL2::apply_clos_plan(const ClosPlan& plan) {
  CAPART_CHECK(clos_enforced(), "apply_clos_plan without CLOS enforcement");
  validate_clos_plan(plan, geometry_.ways, num_threads_);
  CAPART_CHECK(plan.masks.size() == plan_.masks.size(),
               "clos plan changes the CLOS budget");
  std::uint32_t changed = 0;
  for (std::size_t c = 0; c < plan.masks.size(); ++c) {
    if (plan.masks[c] != plan_.masks[c]) ++changed;
  }
  plan_ = plan;
  install_masks();
  return changed;
}

void BankedL2::install_masks() {
  std::vector<WayMask> per_thread(num_threads_);
  for (ThreadId t = 0; t < num_threads_; ++t) {
    per_thread[t] = plan_.masks[plan_.clos_of[t]];
  }
  for (CacheCore& bank : banks_) bank.set_way_ranges(per_thread);
}

const CacheCore& BankedL2::bank(std::uint32_t b) const {
  CAPART_CHECK(b < banks_.size(), "bank index out of range");
  return banks_[b];
}

std::uint32_t BankedL2::bank_of(Addr addr) const noexcept {
  return geometry_.set_of_block(geometry_.block_of(addr)) & bank_mask_;
}

}  // namespace capart::mem
