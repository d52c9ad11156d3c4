// The tag probe of the set-associative caches.
//
// The cache core stores each set's tags as one contiguous array of 64-bit
// block numbers with kInvalidTag (~0) marking empty ways (see replacement.hpp
// for the sentinel's definition and cache_core.hpp for the layout), so the
// hit scan is a pure "first index equal to needle" search over a small dense
// array:
//
//   find_tag(tags, ways, needle) -> first matching way, or `ways` when absent
//
// One portable loop serves every build: vectorizing it made no benchmark
// workload faster (DESIGN.md, "Throughput architecture"). It probes the
// caches below 16 ways (the L1s and private-L2 slices; wider caches look
// tags up in the block index) and finds the first empty way of a set that
// is not yet full. "First" matters: a set holds at most one copy of a
// block, but the first-empty-way search asks for the first of many
// kInvalidTag ways.
#pragma once

#include <cstdint>
#include <string_view>

namespace capart::mem::simd {

inline std::uint32_t find_tag(const std::uint64_t* tags, std::uint32_t ways,
                              std::uint64_t needle) noexcept {
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (tags[w] == needle) return w;
  }
  return ways;
}

/// The probe's name in capart_bench's host facts: always "scalar" now that
/// the one loop above is the only probe.
inline constexpr std::string_view backend_name() noexcept { return "scalar"; }

}  // namespace capart::mem::simd
