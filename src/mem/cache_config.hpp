// Cache geometry description and address decomposition helpers.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/mem/replacement.hpp"

namespace capart::mem {

/// Geometry of one set-associative cache structure.
///
/// All three fields must be powers of two so set indexing reduces to a mask.
/// Way partitioning varies `ways` only; the paper's experiments keep the set
/// count fixed (256 sets of 64-byte lines) and grow/shrink capacity by ways,
/// which is how "giving a thread more cache" is always phrased.
struct CacheGeometry {
  std::uint32_t sets = 256;
  std::uint32_t ways = 64;
  std::uint32_t line_bytes = 64;
  /// Replacement policy of the structure. True LRU is the paper-faithful
  /// default; tree-PLRU and SRRIP are hardware-realism alternatives (the
  /// abl_replacement ablation). Not part of the address decomposition.
  ReplacementKind repl = ReplacementKind::kTrueLru;

  constexpr std::uint64_t size_bytes() const noexcept {
    return static_cast<std::uint64_t>(sets) * ways * line_bytes;
  }

  /// Geometry is user-facing configuration (--l2-sets and friends reach it
  /// directly), so violations throw ConfigError rather than aborting; the
  /// batch layer contains them per arm and the CLIs print them cleanly.
  void validate() const {
    if (!(sets > 0 && std::has_single_bit(sets))) {
      throw ConfigError("sets", "cache sets must be a nonzero power of two (got " +
                                    std::to_string(sets) + ")");
    }
    if (ways == 0) {
      throw ConfigError("ways", "cache must have at least one way");
    }
    // Way indices and per-set line counts are 16-bit.
    if (ways > 65535) {
      throw ConfigError("ways", "cache supports at most 65535 ways (got " +
                                    std::to_string(ways) + ")");
    }
    if (!(line_bytes >= 8 && std::has_single_bit(line_bytes))) {
      throw ConfigError("line_bytes",
                        "line size must be a power of two >= 8 (got " +
                            std::to_string(line_bytes) + ")");
    }
  }

  /// Block number (line-granular address). The line size is a power of two
  /// (validate), so this is a shift: a division would put its latency in
  /// front of every set lookup — and, in a banked L2, of the bank select.
  constexpr std::uint64_t block_of(Addr addr) const noexcept {
    return addr >> std::countr_zero(line_bytes);
  }

  /// Set index for a block number.
  constexpr std::uint32_t set_of_block(std::uint64_t block) const noexcept {
    return static_cast<std::uint32_t>(block & (sets - 1));
  }
};

/// Default configuration from the paper's Fig 2: 8 KB 4-way private L1s with
/// 64 B lines, and a shared 1 MB 64-way L2 (256 sets).
inline constexpr CacheGeometry kDefaultL1{.sets = 32, .ways = 4, .line_bytes = 64};
inline constexpr CacheGeometry kDefaultL2{.sets = 256, .ways = 64, .line_bytes = 64};

/// Default per-core private L2 slice of the three-level (Dunnington-style)
/// configuration: 64 KB, 8-way (paper footnote 1).
inline constexpr CacheGeometry kDefaultPrivateL2{
    .sets = 128, .ways = 8, .line_bytes = 64};

}  // namespace capart::mem
