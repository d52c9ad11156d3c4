#include "src/mem/utility_monitor.hpp"

#include <algorithm>

#include "src/common/check.hpp"

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
  const CacheGeometry shadow{.sets = sampled_sets_,
                             .ways = geometry_.ways,
                             .line_bytes = geometry_.line_bytes,
                             .repl = ReplacementKind::kTrueLru};
  shadows_.reserve(num_threads_);
  for (ThreadId t = 0; t < num_threads_; ++t) {
    shadows_.emplace_back(shadow, 1, PartitionEnforcement::kNone);
  }
  depth_hits_.assign(static_cast<std::size_t>(num_threads_) * geometry_.ways,
                     0);
  accesses_.assign(num_threads_, 0);
  misses_.assign(num_threads_, 0);
}

void UtilityMonitor::observe(ThreadId thread, Addr addr) {
  CAPART_DCHECK(thread < num_threads_, "utility monitor: thread out of range");
  const std::uint64_t block = geometry_.block_of(addr);
  // Sample sets whose low bits are zero; the shadow set is the remaining
  // high bits, so sampled sets spread across the whole index space.
  const std::uint32_t set = geometry_.set_of_block(block);
  if ((set & ((1u << sampling_shift_) - 1)) != 0) return;
  const std::uint32_t shadow_set = set >> sampling_shift_;
  ++accesses_[thread];
  const std::uint32_t depth =
      shadows_[thread].recency_access(block, shadow_set);
  if (depth < geometry_.ways) {
    ++depth_hits_[static_cast<std::size_t>(thread) * geometry_.ways + depth];
  } else {
    ++misses_[thread];
  }
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
