// Threshold tables: the stack-distance generator's draws without pow or
// log1p on the per-op path.
//
// Each of the generator's floored draws — a gap, a reuse depth, a shared
// block — is a libm expression of one uniform draw u = k * 2^-53, where
// k = Rng::lattice() is one of 2^53 lattice indices, so each is a step
// function of k. Where the expression is non-decreasing in u, the value at
// k is the value at k = 0 plus the number of steps at or below k. A
// ThresholdTable holds, for each value v above the one at k = 0, the first
// index K_v whose *unchanged* libm expression floors to at least v, found
// by searching the lattice with that same expression. A lookup counts the
// thresholds at or below k through a guide table on k's top bits and a
// short scan, from the same rng() call the expression would have used, so
// the stream is bit-identical wherever the table answers. It declines
// where it cannot answer — values above its cap (deep reuse depths, large
// shared regions, long gaps), and the rare k that shares its stored top
// bits with a threshold — and there the caller evaluates the libm
// expression, which is exact anyway.
//
// libm does not promise monotonicity, and only a wiggle across an integer,
// within a few ULPs of it, could move a floored value. The lattice points
// just outside each threshold's undecided span are checked at build time,
// and a table with one that disagrees is not used; tests/test_draw_table.cpp
// checks windows sized from each expression's slope.
//
// Tables depend only on a phase's clamped parameters. A process-wide
// registry builds each one once, within a byte budget beyond which draws
// stay on the libm path, and PhasedGenerator fetches every phase's tables
// when it is constructed: a stream's producer never builds a table, takes
// the registry's lock or allocates mid-stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace capart::trace {

struct GenParams;

/// Rng::chance(p) as an integer compare of the same draw: unit() < p
/// exactly when lattice() < ceil(p * 2^53), and p <= 0 or p >= 1 draw
/// nothing, as chance() does.
class LatticeChance {
 public:
  explicit LatticeChance(double p = 0.0) noexcept;

  bool operator()(Rng& rng) const noexcept {
    return draws_ ? rng.lattice() < threshold_ : threshold_ != 0;
  }

  /// Whether the chance draws at all (0 < p < 1).
  bool draws() const noexcept { return draws_; }
  /// When drawing, the first lattice index at which it fails.
  std::uint64_t threshold() const noexcept { return threshold_; }

 private:
  bool draws_ = false;
  /// The compare's bound when drawing; otherwise 1 for always, 0 for never.
  std::uint64_t threshold_ = 0;
};

/// A parameter set's draw parameters, clamped as the generator clamps them:
/// everything the three floored draws depend on.
struct DrawParams {
  DrawParams() = default;
  explicit DrawParams(const GenParams& params);

  double gap_log_denom = 0.0;  ///< log1p(-mem_ratio), mem_ratio in [0.005, 0.95]
  double depth_base = 2.0;     ///< max(working set, 2)
  double depth_skew = 1.0;     ///< reuse_skew in [0.05, 20]
  double shared_skew = 1.0;    ///< shared_skew in [0.05, 20]
  std::uint32_t shared_region = 0;
};

/// The generator's draws as libm computes them, from the draw's lattice
/// index: the reference every table reproduces, and the path for what a
/// table declines.
///
/// Geometric gap with mean (1 - m) / m, by inversion, capped at 4,096.
Instructions gap_of(std::uint64_t k, const DrawParams& p);
/// Reuse depth floor(W ^ (u ^ gamma)), in [1, W].
std::uint64_t depth_of(std::uint64_t k, const DrawParams& p);
/// Shared block floor(u ^ skew * region), clamped into the region.
std::uint64_t shared_block_of(std::uint64_t k, const DrawParams& p);

/// A non-decreasing step function of the lattice index, tabulated.
class ThresholdTable {
 public:
  /// lookup()'s answer where the caller must evaluate the expression.
  static constexpr std::uint32_t kUndecided = ~std::uint32_t{0};
  /// Thresholds one table holds at most: values beyond are undecided.
  static constexpr std::uint32_t kMaxThresholds = 1024;
  /// Low index bits a stored threshold drops (thresholds keep 32 bits).
  static constexpr unsigned kDroppedBits = 21;

  /// Tabulates `expr` (lattice index -> value), starting each threshold's
  /// search at the index of `guess(v)`, an estimate of the unit draw at
  /// which expr first reaches v. Returns null when expr is larger at k = 0
  /// than at the last index, or when a lattice point next to a threshold's
  /// undecided span disagrees with the table: expr is not monotone there.
  static std::unique_ptr<const ThresholdTable> build(
      const std::function<std::uint64_t(std::uint64_t)>& expr,
      const std::function<double(std::uint32_t)>& guess);

  // Generators on other threads hold a table's address.
  ThresholdTable(const ThresholdTable&) = delete;
  ThresholdTable& operator=(const ThresholdTable&) = delete;

  /// expr(k), or kUndecided.
  std::uint32_t lookup(std::uint64_t k) const noexcept {
    const auto h = static_cast<std::uint32_t>(k >> kDroppedBits);
    std::uint32_t i = guide_[h >> guide_shift_];
    while (top_[i] < h) ++i;  // top_ ends in a ~0u sentinel
    if (top_[i] == h || i > last_) return kUndecided;
    return base_ + i;
  }

  /// expr(0).
  std::uint32_t first_value() const noexcept { return base_; }
  /// Thresholds held: those of values first_value() + 1 and up.
  std::uint32_t thresholds() const noexcept {
    return static_cast<std::uint32_t>(top_.size() - 1);
  }
  /// Whether the cap cut the table short: values from first_value() +
  /// thresholds() up are then undecided.
  bool capped() const noexcept { return last_ < thresholds(); }
  /// Threshold `i`'s stored bits: value first_value() + i + 1 starts in
  /// [top(i) << kDroppedBits, (top(i) + 1) << kDroppedBits).
  std::uint32_t top(std::uint32_t i) const noexcept { return top_[i]; }
  /// Bytes the table holds.
  std::size_t bytes() const noexcept;

 private:
  ThresholdTable() = default;

  std::uint32_t base_ = 0;
  /// Largest scan position that decides a value.
  std::uint32_t last_ = 0;
  unsigned guide_shift_ = 32;
  /// Each threshold's top 32 bits, in value order, then ~0u.
  std::vector<std::uint32_t> top_;
  /// Per bucket of top bits: the first threshold at or above the bucket.
  std::vector<std::uint16_t> guide_;
};

/// The draw tables of one parameter set; a null table leaves its draw on
/// the libm path.
struct DrawTables {
  const ThresholdTable* gap = nullptr;
  const ThresholdTable* depth = nullptr;
  const ThresholdTable* shared = nullptr;
};

/// Builds each draw table once, keyed by the clamped parameters it depends
/// on, and keeps it as long as the registry lives. Tables that would take
/// the registry past its byte budget are not built.
class DrawTableRegistry {
 public:
  /// Bytes of tables the process-wide registry holds at most.
  static constexpr std::size_t kProcessBudgetBytes = std::size_t{4} << 20;

  explicit DrawTableRegistry(std::size_t budget_bytes) noexcept
      : budget_(budget_bytes) {}
  DrawTableRegistry(const DrawTableRegistry&) = delete;
  DrawTableRegistry& operator=(const DrawTableRegistry&) = delete;

  /// The process-wide registry. Never destroyed: generators point into it
  /// until the process exits.
  static DrawTableRegistry& process();

  /// The tables of `params`' draws, building the missing ones. Validates
  /// `params` first (GenParams::validate's ConfigError). Draws `params`
  /// never makes (depths with p_new or share_fraction 1, shared blocks with
  /// share_fraction 0) get no table.
  DrawTables tables(const GenParams& params);

  /// Bytes of the tables held.
  std::size_t bytes() const;
  /// Tables built so far (a declined build counts too).
  std::size_t builds() const;

 private:
  enum class Kind : std::uint8_t { kGap, kDepth, kShared };
  using Key = std::tuple<Kind, std::uint64_t, std::uint64_t>;

  /// Under mutex_: the table for `key`, built by `make` if missing and the
  /// budget allows.
  const ThresholdTable* table_locked(
      const Key& key,
      const std::function<std::unique_ptr<const ThresholdTable>()>& make);

  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<const ThresholdTable>> tables_;
  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::size_t builds_ = 0;
};

/// The draw tables of one parameter set as its three builders make them,
/// outside any registry (the registry calls these).
std::unique_ptr<const ThresholdTable> make_gap_table(const DrawParams& p);
std::unique_ptr<const ThresholdTable> make_depth_table(const DrawParams& p);
std::unique_ptr<const ThresholdTable> make_shared_table(const DrawParams& p);

}  // namespace capart::trace
