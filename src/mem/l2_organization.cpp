#include "src/mem/l2_organization.hpp"

#include "src/common/check.hpp"
#include "src/mem/banked_l2.hpp"
#include "src/mem/set_partitioned_l2.hpp"

namespace capart::mem {

std::string_view to_string(L2Mode mode) noexcept {
  switch (mode) {
    case L2Mode::kSharedUnpartitioned: return "shared-unpartitioned";
    case L2Mode::kPartitionedShared: return "partitioned-shared";
    case L2Mode::kPrivatePerThread: return "private-per-thread";
    case L2Mode::kSetPartitionedShared: return "set-partitioned-shared";
    case L2Mode::kFlushReconfigureShared: return "flush-reconfigure-shared";
  }
  return "unknown";
}

std::string_view to_string(L2Enforce enforce) noexcept {
  switch (enforce) {
    case L2Enforce::kModeDefault: return "default";
    case L2Enforce::kEvictionControl: return "eviction-control";
    case L2Enforce::kClosWayMask: return "clos";
  }
  return "unknown";
}

bool parse_l2_enforce(std::string_view name, L2Enforce& out) noexcept {
  if (name == "default") {
    out = L2Enforce::kModeDefault;
  } else if (name == "eviction-control" || name == "eviction") {
    out = L2Enforce::kEvictionControl;
  } else if (name == "clos" || name == "clos-way-mask") {
    out = L2Enforce::kClosWayMask;
  } else {
    return false;
  }
  return true;
}

std::uint32_t L2Organization::apply_clos_plan(const ClosPlan& /*plan*/) {
  CAPART_CHECK(false, "apply_clos_plan on an organization without CLOS "
                      "enforcement");
}

std::unique_ptr<L2Organization> make_l2(L2Mode mode,
                                        const CacheGeometry& geometry,
                                        ThreadId num_threads,
                                        const L2BuildOptions& opts) {
  const std::uint32_t banks = opts.banks == 0 ? 1 : opts.banks;
  if (opts.enforce == L2Enforce::kClosWayMask) {
    // The mode restriction is validated (with ConfigError) at the config
    // layer.
    CAPART_CHECK(mode == L2Mode::kPartitionedShared,
                 "clos enforcement requires the partitioned shared mode");
    return std::make_unique<BankedL2>(geometry, num_threads, banks,
                                      PartitionEnforcement::kClosWayMask,
                                      opts.clos_budget);
  }
  switch (mode) {
    case L2Mode::kSharedUnpartitioned:
      return std::make_unique<BankedL2>(geometry, num_threads, banks,
                                        PartitionEnforcement::kNone);
    case L2Mode::kPartitionedShared:
      return std::make_unique<BankedL2>(
          geometry, num_threads, banks,
          PartitionEnforcement::kWayEvictionControl);
    case L2Mode::kFlushReconfigureShared:
      return std::make_unique<BankedL2>(
          geometry, num_threads, banks,
          PartitionEnforcement::kWayFlushReconfigure);
    // The private and coloring organizations keep monolithic structures;
    // banks then only drive the CMP system's contention model.
    case L2Mode::kPrivatePerThread:
      return std::make_unique<PrivateL2>(geometry, num_threads);
    case L2Mode::kSetPartitionedShared:
      // One color per way keeps the policies' [1, ways] target range
      // intact; with the default 256-set, 64-way cache that is 64 colors of
      // 4 sets.
      return std::make_unique<SetPartitionedL2>(
          geometry, num_threads, /*colors=*/geometry.ways, kColoringPageBytes);
  }
  CAPART_CHECK(false, "unreachable L2 mode");
}

PrivateL2::PrivateL2(const CacheGeometry& geometry, ThreadId num_threads)
    : stats_(num_threads), total_ways_(geometry.ways) {
  CAPART_CHECK(num_threads > 0, "private L2 needs >= 1 thread");
  CAPART_CHECK(geometry.ways >= num_threads,
               "private L2: fewer ways than threads");
  CacheGeometry slice = geometry;
  slice.ways = geometry.ways / num_threads;
  slices_.reserve(num_threads);
  for (ThreadId t = 0; t < num_threads; ++t) {
    slices_.emplace_back(slice, /*num_threads=*/1, PartitionEnforcement::kNone);
  }
}

bool PrivateL2::access(ThreadId thread, Addr addr, AccessType type) {
  CAPART_CHECK(thread < slices_.size(), "private L2: thread out of range");
  const bool hit = slices_[thread].access(0, addr, type).hit;
  ThreadCacheCounters& c = stats_.thread(thread);
  ++c.accesses;
  if (hit) {
    ++c.hits;
  } else {
    ++c.misses;
  }
  return hit;
}

void PrivateL2::set_targets(std::span<const std::uint32_t> /*targets*/) {
  // Private slices are fixed hardware structures; nothing to reconfigure.
}

std::vector<std::uint32_t> PrivateL2::current_targets() const {
  return std::vector<std::uint32_t>(
      slices_.size(), slices_.empty() ? 0 : slices_.front().geometry().ways);
}

}  // namespace capart::mem
