// Threshold tables against the libm expressions they replace. A table
// answers a draw only where it is sure; everywhere else the generator
// evaluates the expression itself. So each check below compares the table's
// decided values with libm: at every lattice index in a window around each
// threshold (where a libm wiggle across the integer would show), at both
// ends of the lattice and at random indices, for every parameter set the
// nine profiles yield at 4 and at 32 threads and for random ones.
#include "src/trace/draw_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/phase.hpp"
#include "src/trace/stack_dist_generator.hpp"

namespace capart::trace {
namespace {

constexpr std::uint64_t kLastIndex = (std::uint64_t{1} << 53) - 1;
constexpr std::uint64_t kSpan = std::uint64_t{1} << ThresholdTable::kDroppedBits;

enum class Draw { kGap, kDepth, kShared };

std::uint64_t libm(Draw draw, std::uint64_t k, const DrawParams& p) {
  switch (draw) {
    case Draw::kGap: return gap_of(k, p);
    case Draw::kDepth: return depth_of(k, p);
    case Draw::kShared: return shared_block_of(k, p);
  }
  return 0;
}

/// The expression before flooring, at unit draw u.
double unfloored(Draw draw, double u, const DrawParams& p) {
  switch (draw) {
    case Draw::kGap: return std::log1p(-u) / p.gap_log_denom;
    case Draw::kDepth: return std::pow(p.depth_base, std::pow(u, p.depth_skew));
    case Draw::kShared:
      return std::pow(u, p.shared_skew) * static_cast<double>(p.shared_region);
  }
  return 0.0;
}

std::unique_ptr<const ThresholdTable> make_table(Draw draw,
                                                 const DrawParams& p) {
  switch (draw) {
    case Draw::kGap: return make_gap_table(p);
    case Draw::kDepth: return make_depth_table(p);
    case Draw::kShared: return make_shared_table(p);
  }
  return nullptr;
}

double unit_of(std::uint64_t k) { return static_cast<double>(k) * 0x1.0p-53; }

/// A window reaches every lattice point whose unfloored value lies within
/// this many ULPs of the threshold's integer (libm's error, compounded
/// through the depth draw's two pows, is a few ULPs), and at least
/// kMinHalfWidth points on each side.
constexpr double kWindowUlps = 64.0;
constexpr std::uint64_t kMinHalfWidth = 64;
constexpr std::uint64_t kMaxHalfWidth = std::uint64_t{1} << 24;

struct Case {
  Draw draw;
  DrawParams params;
  std::string what;
};

/// Compares `table` with libm near every threshold, at both ends of the
/// lattice and at random indices. Undecided indices are skipped: there the
/// generator evaluates libm itself.
void expect_matches_libm(const Case& c, const ThresholdTable& table) {
  std::uint64_t wrong = 0;
  std::uint64_t first_wrong = 0;
  const auto check = [&](std::uint64_t k) {
    const std::uint32_t got = table.lookup(k);
    if (got != ThresholdTable::kUndecided && got != libm(c.draw, k, c.params)) {
      if (wrong++ == 0) first_wrong = k;
    }
  };
  for (std::uint32_t i = 0; i < table.thresholds(); ++i) {
    const std::uint64_t v = table.first_value() + i + 1;
    // The threshold's exact index, within its stored bits' span.
    std::uint64_t lo = std::uint64_t{table.top(i)} << ThresholdTable::kDroppedBits;
    std::uint64_t hi = std::min(lo + kSpan - 1, kLastIndex);
    ASSERT_GE(libm(c.draw, hi, c.params), v)
        << c.what << ": threshold " << i << " is not in its stored span";
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (libm(c.draw, mid, c.params) >= v) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    // Lattice points per unit of the unfloored value, from its slope.
    const std::uint64_t a = lo > kSpan ? lo - kSpan : 0;
    const std::uint64_t b = std::min(lo + kSpan, kLastIndex);
    const double rise = unfloored(c.draw, unit_of(b), c.params) -
                        unfloored(c.draw, unit_of(a), c.params);
    const double per_unit = static_cast<double>(b - a) / rise;
    const double ulps = kWindowUlps * static_cast<double>(v) * 0x1.0p-52;
    std::uint64_t half = kMaxHalfWidth;
    if (rise > 0.0 && ulps * per_unit < static_cast<double>(kMaxHalfWidth)) {
      half = std::max(kMinHalfWidth,
                      static_cast<std::uint64_t>(std::ceil(ulps * per_unit)));
    }
    for (std::uint64_t k = lo > half ? lo - half : 0;
         k <= std::min(lo + half, kLastIndex); ++k) {
      check(k);
    }
  }
  check(0);
  check(kLastIndex);
  Rng rng(99);
  for (int i = 0; i < 4096; ++i) check(rng.lattice());
  EXPECT_EQ(wrong, 0u) << c.what << ": " << wrong
                       << " decided indices differ from libm, the first at "
                       << first_wrong;
}

/// Every draw of `params` that the generator makes, once per clamped
/// parameter set.
void add_cases(const GenParams& params, const std::string& what,
               std::map<std::tuple<int, double, double, std::uint32_t>, Case>& out) {
  const DrawParams p(params);
  out.emplace(std::make_tuple(0, p.gap_log_denom, 0.0, 0u),
              Case{Draw::kGap, p, what + " gap"});
  if (params.p_new < 1.0 && params.share_fraction < 1.0) {
    out.emplace(std::make_tuple(1, p.depth_base, p.depth_skew, 0u),
                Case{Draw::kDepth, p, what + " depth"});
  }
  if (params.share_fraction > 0.0) {
    out.emplace(std::make_tuple(2, p.shared_skew, 0.0, p.shared_region),
                Case{Draw::kShared, p, what + " shared"});
  }
}

TEST(DrawTable, LatticeChanceIsChance) {
  for (const double p : {-0.5, 0.0, 0x1.0p-60, 0.01, 0.05, 0.3, 0.5,
                         1.0 - 0x1.0p-53, 1.0, 2.0}) {
    const LatticeChance chance(p);
    Rng a(17);
    Rng b(17);
    for (int i = 0; i < 20'000; ++i) {
      ASSERT_EQ(chance(a), b.chance(p)) << "p = " << p << ", draw " << i;
    }
    EXPECT_EQ(a(), b()) << "p = " << p << ": the streams drifted apart";
  }
  // At and around a lattice point: chance() succeeds below k0 = p * 2^53.
  const std::uint64_t k0 = 0x123456789abcdull;
  const double at = static_cast<double>(k0) * 0x1.0p-53;
  for (const double p : {at, std::nextafter(at, 0.0), std::nextafter(at, 1.0)}) {
    const LatticeChance chance(p);
    ASSERT_TRUE(chance.draws());
    for (const std::uint64_t k : {k0 - 1, k0, k0 + 1}) {
      EXPECT_EQ(k < chance.threshold(), unit_of(k) < p) << "k = " << k;
    }
  }
  EXPECT_FALSE(LatticeChance(0.0).draws());
  EXPECT_FALSE(LatticeChance(1.0).draws());
}

TEST(DrawTable, ProfileTablesMatchLibmNearEveryThreshold) {
  // make_profile's 0.6^cycle-scaled working sets at 32 threads (clos_32t
  // runs cg there) add to the canonical four-thread ones; swim's and
  // applu's second phases are their own parameter sets.
  std::map<std::tuple<int, double, double, std::uint32_t>, Case> cases;
  for (const std::string& name : benchmark_names()) {
    for (const ThreadId threads : {4u, 32u}) {
      const BenchmarkProfile profile = make_profile(name, threads);
      for (std::size_t t = 0; t < profile.threads.size(); ++t) {
        for (const Phase& phase : profile.threads[t].phases) {
          add_cases(phase.params, name + " x" + std::to_string(threads) +
                                      " thread " + std::to_string(t),
                    cases);
        }
      }
    }
  }
  ASSERT_GT(cases.size(), 100u);
  for (const auto& [key, c] : cases) {
    const auto table = make_table(c.draw, c.params);
    // Every profile draw has a table: none fell back wholesale to libm.
    ASSERT_NE(table, nullptr) << c.what;
    expect_matches_libm(c, *table);
  }
}

TEST(DrawTable, RandomParamsMatchLibmNearEveryThreshold) {
  Rng rng(2024);
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(std::log(lo) + rng.unit() * (std::log(hi) - std::log(lo)));
  };
  for (int i = 0; i < 12; ++i) {
    GenParams params;
    params.mem_ratio = 0.001 + 0.999 * rng.unit();
    params.working_set_blocks =
        static_cast<std::uint32_t>(log_uniform(1.0, 300'000.0));
    params.reuse_skew = log_uniform(0.01, 30.0);
    params.shared_skew = log_uniform(0.01, 30.0);
    params.shared_region_blocks =
        1 + static_cast<std::uint32_t>(rng.below(100'000));
    std::map<std::tuple<int, double, double, std::uint32_t>, Case> cases;
    add_cases(params, "random " + std::to_string(i), cases);
    for (const auto& [key, c] : cases) {
      // A refused table leaves the draw on libm, which is exact.
      if (const auto table = make_table(c.draw, c.params)) {
        expect_matches_libm(c, *table);
      }
    }
  }
}

TEST(DrawTable, ValuesAboveTheCapComeFromLibm) {
  GenParams params;
  params.working_set_blocks = 200'000;  // depths far beyond the cap
  params.reuse_skew = 1.0;
  const DrawParams p(params);
  const auto table = make_depth_table(p);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE(table->capped());
  EXPECT_EQ(table->thresholds(), ThresholdTable::kMaxThresholds);
  const std::uint64_t cap = table->first_value() + table->thresholds();
  EXPECT_EQ(table->lookup(kLastIndex), ThresholdTable::kUndecided);
  Rng rng(7);
  int above = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t k = rng.lattice();
    const std::uint64_t want = depth_of(k, p);
    const std::uint32_t got = table->lookup(k);
    if (want >= cap) {
      ++above;
      EXPECT_EQ(got, ThresholdTable::kUndecided) << "k = " << k;
    } else if (got != ThresholdTable::kUndecided) {
      EXPECT_EQ(got, want) << "k = " << k;
    }
  }
  EXPECT_GT(above, 1'000);  // about 44 % of draws lie above depth 1,025
}

TEST(DrawTable, BuilderRefusesANonMonotoneExpression) {
  // floor(k / 2^43): value v starts at v << 43, in [0, 1023].
  const auto steps = [](std::uint64_t k) { return k >> 43; };
  const auto guess = [](std::uint32_t v) {
    return static_cast<double>(v) * 0x1.0p-10;
  };
  const auto table = ThresholdTable::build(steps, guess);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->thresholds(), 1023u);
  EXPECT_FALSE(table->capped());
  EXPECT_EQ(table->lookup((std::uint64_t{700} << 43) + kSpan), 700u);

  const std::uint64_t k5 = std::uint64_t{5} << 43;
  // Dips back below 5 just past 5's undecided span.
  EXPECT_EQ(ThresholdTable::build(
                [&](std::uint64_t k) {
                  return k == k5 + kSpan ? std::uint64_t{4} : steps(k);
                },
                guess),
            nullptr);
  // Reaches 5 once, two indices before its threshold.
  EXPECT_EQ(ThresholdTable::build(
                [&](std::uint64_t k) {
                  return k == k5 - 2 ? std::uint64_t{5} : steps(k);
                },
                guess),
            nullptr);
  // Ends lower than it starts.
  EXPECT_EQ(ThresholdTable::build(
                [](std::uint64_t k) { return std::uint64_t{1023} - (k >> 43); }, guess),
            nullptr);
}

TEST(DrawTable, ConcurrentRequestsShareOneTable) {
  DrawTableRegistry registry(DrawTableRegistry::kProcessBudgetBytes);
  GenParams params;
  params.working_set_blocks = 12'345;
  params.reuse_skew = 2.2;
  constexpr int kThreads = 4;
  std::vector<DrawTables> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[static_cast<std::size_t>(t)] = registry.tables(params);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.builds(), 3u);  // gap, depth, shared
  for (const DrawTables& tables : got) {
    ASSERT_NE(tables.depth, nullptr);
    EXPECT_EQ(tables.gap, got[0].gap);
    EXPECT_EQ(tables.depth, got[0].depth);
    EXPECT_EQ(tables.shared, got[0].shared);
  }
}

TEST(DrawTable, RegistryStopsBuildingAtItsBudget) {
  // Room for about two full tables: later parameter sets get none.
  DrawTableRegistry registry(16 << 10);
  std::size_t without = 0;
  for (std::uint32_t w = 3'000; w < 3'020; ++w) {
    GenParams params;
    params.working_set_blocks = w;
    const DrawTables tables = registry.tables(params);
    if (tables.depth == nullptr) ++without;
    EXPECT_LE(registry.bytes(), std::size_t{16} << 10);
  }
  EXPECT_GE(without, 15u);
}

TEST(DrawTable, StreamIsTheSameWithAndWithoutTables) {
  GenParams params;
  params.working_set_blocks = 9'000;
  params.reuse_skew = 2.4;
  params.p_new = 0.04;
  params.share_fraction = 0.2;
  params.shared_region_blocks = 3'000;
  DrawTableRegistry registry(DrawTableRegistry::kProcessBudgetBytes);
  const DrawTables tables = registry.tables(params);
  ASSERT_NE(tables.depth, nullptr);
  StackDistGenerator with(params, tables, Rng(3), Addr{1} << 40, Addr{1} << 50);
  StackDistGenerator without(params, DrawTables{}, Rng(3), Addr{1} << 40,
                             Addr{1} << 50);
  for (int i = 0; i < 200'000; ++i) {
    const NextOp a = with.next();
    const NextOp b = without.next();
    ASSERT_EQ(a.gap, b.gap) << "op " << i;
    ASSERT_EQ(a.addr, b.addr) << "op " << i;
    ASSERT_EQ(a.type, b.type) << "op " << i;
    ASSERT_EQ(a.prefetchable, b.prefetchable) << "op " << i;
  }
}

TEST(DrawTable, PhasedGeneratorBuildsEveryTableUpFront) {
  // Parameter sets no other test, and no earlier repetition of this one in
  // the same process, uses, so this generator builds them.
  static std::atomic<std::uint32_t> repetition{0};
  const std::uint32_t r = repetition++;
  Phase a;
  a.params.working_set_blocks = 7'777 + r;
  a.params.reuse_skew = 1.9;
  a.duration = 30'000;
  Phase b = a;
  b.params.working_set_blocks = 5'555 + r;
  b.params.mem_ratio = 0.11;
  DrawTableRegistry& registry = DrawTableRegistry::process();
  const std::size_t before = registry.builds();
  PhasedGenerator generator(PhaseSchedule({a, b}), Rng(5), Addr{1} << 40,
                            Addr{1} << 50);
  const std::size_t built = registry.builds();
  EXPECT_GT(built, before);
  std::vector<NextOp> ops(100'000);
  generator.fill(ops.data(), ops.size());
  EXPECT_GT(generator.position(), a.duration + b.duration);
  EXPECT_EQ(registry.builds(), built);
}

}  // namespace
}  // namespace capart::trace
