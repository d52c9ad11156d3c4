#include "src/trace/draw_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/trace/stack_dist_generator.hpp"

namespace capart::trace {
namespace {

constexpr Instructions kMaxGap = 4096;
constexpr std::uint64_t kLastIndex = (std::uint64_t{1} << 53) - 1;
/// Guide buckets per table: the power of two at or above its thresholds,
/// within these bounds, so a lookup scans about half a threshold on
/// average.
constexpr std::uint32_t kMinGuideBuckets = 16;
constexpr std::uint32_t kMaxGuideBuckets = 1024;
static_assert(ThresholdTable::kMaxThresholds < 0xFFFF,
              "guide entries are 16-bit threshold positions");
/// Decided lattice points the build checks on each side of a threshold's
/// undecided span.
constexpr std::uint64_t kCheckPoints = 2;
/// A registry entry's bookkeeping beyond its table (the map node).
constexpr std::size_t kEntryBytes = 64;
/// The most one registry entry can take: the budget is checked against it
/// before a build.
constexpr std::size_t kMaxEntryBytes =
    kEntryBytes + sizeof(ThresholdTable) +
    (ThresholdTable::kMaxThresholds + 1) * sizeof(std::uint32_t) +
    kMaxGuideBuckets * sizeof(std::uint16_t);

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

double unit_of(std::uint64_t k) { return static_cast<double>(k) * 0x1.0p-53; }

/// The lattice index of unit draw `u`, within [lo, hi].
std::uint64_t index_of(double u, std::uint64_t lo, std::uint64_t hi) {
  if (!(u > 0.0)) return lo;  // NaN too
  if (u >= 1.0) return hi;
  return std::clamp(static_cast<std::uint64_t>(u * 0x1.0p53), lo, hi);
}

/// The smallest k in [lo, hi] with expr(k) >= v, given expr(hi) >= v:
/// doubling steps from `start` bracket it, then bisection.
std::uint64_t first_reaching(
    const std::function<std::uint64_t(std::uint64_t)>& expr, std::uint64_t v,
    std::uint64_t lo, std::uint64_t hi, std::uint64_t start) {
  if (expr(start) >= v) {
    hi = start;
    for (std::uint64_t step = 1; hi - lo > step; step *= 2) {
      if (expr(hi - step) < v) {
        lo = hi - step + 1;
        break;
      }
      hi -= step;
    }
  } else {
    lo = start + 1;
    for (std::uint64_t step = 1; hi - lo > step; step *= 2) {
      if (expr(lo + step) >= v) {
        hi = lo + step;
        break;
      }
      lo += step + 1;
    }
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (expr(mid) >= v) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

LatticeChance::LatticeChance(double p) noexcept {
  if (p <= 0.0) return;  // never, without a draw
  if (p >= 1.0) {        // always, without a draw
    threshold_ = 1;
    return;
  }
  draws_ = true;
  // k * 2^-53 < p exactly when k < p * 2^53 (scaling by a power of two
  // rounds nothing), that is when k < ceil(p * 2^53). A NaN p draws and
  // never succeeds, as chance() does.
  if (p > 0.0) threshold_ = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

DrawParams::DrawParams(const GenParams& params)
    : gap_log_denom(std::log1p(-clamp(params.mem_ratio, 0.005, 0.95))),
      depth_base(
          std::max(static_cast<double>(params.working_set_blocks), 2.0)),
      depth_skew(clamp(params.reuse_skew, 0.05, 20.0)),
      shared_skew(clamp(params.shared_skew, 0.05, 20.0)),
      shared_region(params.shared_region_blocks) {}

Instructions gap_of(std::uint64_t k, const DrawParams& p) {
  const double g = std::log1p(-unit_of(k)) / p.gap_log_denom;
  return std::min(static_cast<Instructions>(g), kMaxGap);
}

std::uint64_t depth_of(std::uint64_t k, const DrawParams& p) {
  const double u = std::pow(unit_of(k), p.depth_skew);
  return static_cast<std::uint64_t>(std::pow(p.depth_base, u));
}

std::uint64_t shared_block_of(std::uint64_t k, const DrawParams& p) {
  const double u = std::pow(unit_of(k), p.shared_skew);
  const auto block =
      static_cast<std::uint64_t>(u * static_cast<double>(p.shared_region));
  return std::min<std::uint64_t>(block, p.shared_region - 1);
}

std::unique_ptr<const ThresholdTable> ThresholdTable::build(
    const std::function<std::uint64_t(std::uint64_t)>& expr,
    const std::function<double(std::uint32_t)>& guess) {
  const std::uint64_t base = expr(0);
  const std::uint64_t last_value = expr(kLastIndex);
  if (last_value < base || base >= kUndecided - kMaxThresholds) return nullptr;
  const auto n = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(last_value - base, kMaxThresholds));

  std::unique_ptr<ThresholdTable> table(new ThresholdTable());
  table->base_ = static_cast<std::uint32_t>(base);
  table->last_ = n < last_value - base ? n - 1 : n;
  std::vector<std::uint64_t> first(n);
  std::uint64_t lo = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t v = base + i + 1;
    lo = first_reaching(expr, v, lo, kLastIndex,
                        index_of(guess(static_cast<std::uint32_t>(v)), lo,
                                 kLastIndex));
    first[i] = lo;
  }
  table->top_.resize(n + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    table->top_[i] = static_cast<std::uint32_t>(first[i] >> kDroppedBits);
  }
  table->top_[n] = ~std::uint32_t{0};

  const std::uint32_t buckets =
      std::clamp(std::bit_ceil(n), kMinGuideBuckets, kMaxGuideBuckets);
  table->guide_shift_ = 32u - static_cast<unsigned>(std::countr_zero(buckets));
  table->guide_.resize(buckets);
  std::uint32_t i = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    while (table->top_[i] < (b << table->guide_shift_)) ++i;
    table->guide_[b] = static_cast<std::uint16_t>(i);
  }

  // Next to each threshold's undecided span, where a wiggle of the
  // expression across the integer would be decided wrongly.
  const auto agrees = [&](std::uint64_t k) {
    const std::uint32_t value = table->lookup(k);
    return value == kUndecided || value == expr(k);
  };
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint64_t below = std::uint64_t{table->top_[t]} << kDroppedBits;
    const std::uint64_t above = below + (std::uint64_t{1} << kDroppedBits);
    for (std::uint64_t j = 0; j < kCheckPoints; ++j) {
      if (below > j && !agrees(below - j - 1)) return nullptr;
      if (above + j <= kLastIndex && !agrees(above + j)) return nullptr;
    }
  }
  return table;
}

std::size_t ThresholdTable::bytes() const noexcept {
  return sizeof(*this) + top_.capacity() * sizeof(std::uint32_t) +
         guide_.capacity() * sizeof(std::uint16_t);
}

std::unique_ptr<const ThresholdTable> make_gap_table(const DrawParams& p) {
  // gap >= v exactly when u >= -expm1(v * log1p(-m)).
  return ThresholdTable::build(
      [&p](std::uint64_t k) { return gap_of(k, p); },
      [&p](std::uint32_t v) {
        return -std::expm1(static_cast<double>(v) * p.gap_log_denom);
      });
}

std::unique_ptr<const ThresholdTable> make_depth_table(const DrawParams& p) {
  // W ^ (u ^ gamma) >= v exactly when u >= (ln v / ln W) ^ (1 / gamma).
  const double log_base = std::log(p.depth_base);
  return ThresholdTable::build(
      [&p](std::uint64_t k) { return depth_of(k, p); },
      [&p, log_base](std::uint32_t v) {
        return std::pow(std::log(static_cast<double>(v)) / log_base,
                        1.0 / p.depth_skew);
      });
}

std::unique_ptr<const ThresholdTable> make_shared_table(const DrawParams& p) {
  // u ^ skew * region >= v exactly when u >= (v / region) ^ (1 / skew).
  return ThresholdTable::build(
      [&p](std::uint64_t k) { return shared_block_of(k, p); },
      [&p](std::uint32_t v) {
        return std::pow(static_cast<double>(v) /
                            static_cast<double>(p.shared_region),
                        1.0 / p.shared_skew);
      });
}

DrawTableRegistry& DrawTableRegistry::process() {
  static DrawTableRegistry* const registry =
      new DrawTableRegistry(kProcessBudgetBytes);
  return *registry;
}

DrawTables DrawTableRegistry::tables(const GenParams& params) {
  params.validate();
  const DrawParams p(params);
  DrawTables out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.gap = table_locked(
      {Kind::kGap, std::bit_cast<std::uint64_t>(p.gap_log_denom), 0},
      [&p] { return make_gap_table(p); });
  if (params.p_new < 1.0 && params.share_fraction < 1.0) {
    out.depth = table_locked({Kind::kDepth,
                              std::bit_cast<std::uint64_t>(p.depth_base),
                              std::bit_cast<std::uint64_t>(p.depth_skew)},
                             [&p] { return make_depth_table(p); });
  }
  if (params.share_fraction > 0.0) {
    out.shared = table_locked(
        {Kind::kShared, std::bit_cast<std::uint64_t>(p.shared_skew),
         p.shared_region},
        [&p] { return make_shared_table(p); });
  }
  return out;
}

const ThresholdTable* DrawTableRegistry::table_locked(
    const Key& key,
    const std::function<std::unique_ptr<const ThresholdTable>()>& make) {
  const auto it = tables_.find(key);
  if (it != tables_.end()) return it->second.get();
  if (bytes_ + kMaxEntryBytes > budget_) return nullptr;
  std::unique_ptr<const ThresholdTable> table = make();
  ++builds_;
  bytes_ += kEntryBytes + (table != nullptr ? table->bytes() : 0);
  return tables_.emplace(key, std::move(table)).first->second.get();
}

std::size_t DrawTableRegistry::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t DrawTableRegistry::builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

}  // namespace capart::trace
