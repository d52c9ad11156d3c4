// Differential tests against the naive reference model of tests/
// reference_cache.hpp: CacheCore (every replacement policy x every
// enforcement, at a scan-probed and a hash-indexed associativity, and as the
// single-thread caches of the private hierarchy), BankedL2 at 1, 2 and 8
// banks, and the UMON shadow directory (true LRU over a monitored cache of
// every replacement policy) are each driven with the same random access,
// retarget and mask sequence as the oracle. After every access the
// hit/miss outcome, both inter-thread flags, the accessed set's resident
// blocks (which exposes the victim) and the per-thread ownership of that set
// must agree; after every retarget, the lines flushed.
#include "tests/reference_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/banked_l2.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/clos.hpp"
#include "src/mem/utility_monitor.hpp"

namespace capart::mem {
namespace {

using Enf = PartitionEnforcement;

constexpr Enf kAllEnforcements[] = {
    Enf::kNone, Enf::kWayEvictionControl, Enf::kWayFlushReconfigure,
    Enf::kSetColoring, Enf::kClosWayMask};

struct Case {
  ReplacementKind repl;
  Enf enforcement;
  std::uint32_t ways;
  ThreadId threads;
  std::uint32_t banks = 0;  ///< BankedL2 cases only
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = std::string(to_string(c.repl)) + "_" +
                     std::string(to_string(c.enforcement)) + "_" +
                     std::to_string(c.ways) + "w_" +
                     std::to_string(c.threads) + "t";
  if (c.banks != 0) name += "_" + std::to_string(c.banks) + "b";
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

/// A random stream with reuse: half the accesses hit a shared footprint of
/// half the cache, the rest a per-thread region twice the cache.
std::uint64_t next_block(Rng& rng, ThreadId thread, std::uint64_t lines) {
  if (rng.below(2) == 0) return rng.below(lines / 2);
  return (std::uint64_t{thread} + 1) * (std::uint64_t{1} << 24) +
         rng.below(2 * lines);
}

AccessType next_type(Rng& rng) {
  return rng.below(4) == 0 ? AccessType::kWrite : AccessType::kRead;
}

std::vector<std::uint32_t> random_targets(Rng& rng, std::uint32_t ways,
                                          ThreadId threads) {
  std::vector<std::uint32_t> targets(threads, 1);
  for (std::uint32_t w = threads; w < ways; ++w) ++targets[rng.below(threads)];
  return targets;
}

std::vector<WayMask> random_masks(Rng& rng, std::uint32_t ways,
                                  ThreadId threads) {
  std::vector<WayMask> masks(threads);
  for (WayMask& m : masks) {
    m.nr_ways = 1 + static_cast<std::uint32_t>(rng.below(ways));
    m.low_way = static_cast<std::uint32_t>(rng.below(ways - m.nr_ways + 1));
  }
  return masks;
}

void expect_counters(const ThreadCacheCounters& got,
                     const ref::RefCounters& want, ThreadId t) {
  ASSERT_EQ(got.accesses, want.accesses) << "thread " << t;
  ASSERT_EQ(got.hits, want.hits) << "thread " << t;
  ASSERT_EQ(got.misses, want.misses) << "thread " << t;
  ASSERT_EQ(got.inter_thread_hits, want.inter_thread_hits) << "thread " << t;
  ASSERT_EQ(got.inter_thread_evictions_caused,
            want.inter_thread_evictions_caused)
      << "thread " << t;
  ASSERT_EQ(got.inter_thread_evictions_suffered,
            want.inter_thread_evictions_suffered)
      << "thread " << t;
  ASSERT_EQ(got.intra_thread_evictions, want.intra_thread_evictions)
      << "thread " << t;
  ASSERT_EQ(got.writebacks, want.writebacks) << "thread " << t;
}

/// `core`'s set `set` holds exactly the oracle's set `ref_set`, with the
/// same per-thread ownership.
void expect_same_set(const CacheCore& core, std::uint32_t set,
                     const ref::ReferenceCache& oracle, std::uint32_t ref_set) {
  std::uint32_t resident = 0;
  for (ThreadId t = 0; t < core.num_threads(); ++t) {
    ASSERT_EQ(core.owned_in_set(set, t), oracle.owned_in_set(ref_set, t))
        << "thread " << t << " in set " << ref_set;
    resident += core.owned_in_set(set, t);
  }
  const std::vector<std::uint64_t> blocks = oracle.resident(ref_set);
  ASSERT_EQ(resident, blocks.size()) << "set " << ref_set;
  for (const std::uint64_t block : blocks) {
    ASSERT_TRUE(core.contains_block_in_set(block, set))
        << "block " << block << " missing from set " << ref_set;
  }
}

// ---------------------------------------------------------------------------
// CacheCore

class ReferenceCache : public ::testing::TestWithParam<Case> {};

TEST_P(ReferenceCache, CoreMatchesOracle) {
  const Case& c = GetParam();
  const CacheGeometry g{.sets = c.ways >= 64 ? 16u : 32u,
                        .ways = c.ways,
                        .line_bytes = 64,
                        .repl = c.repl};
  CacheCore core(g, c.threads, c.enforcement);
  ref::ReferenceCache oracle(g.sets, g.ways, c.threads, c.repl, c.enforcement);
  const std::uint64_t lines = std::uint64_t{g.sets} * g.ways;
  const bool way_targets = c.enforcement == Enf::kWayEvictionControl ||
                           c.enforcement == Enf::kWayFlushReconfigure;
  Rng rng(0x5eed0000 + c.ways + 131 * c.threads);
  std::uint64_t color_shift = 0;

  for (int op = 0; op < 20'000; ++op) {
    if (op % 257 == 256) {
      if (way_targets) {
        const std::vector<std::uint32_t> t =
            random_targets(rng, g.ways, c.threads);
        core.set_targets(t);
        oracle.set_targets(t);
        ASSERT_EQ(core.flushed_on_last_retarget(),
                  oracle.flushed_on_last_retarget())
            << "retarget before op " << op;
      } else if (c.enforcement == Enf::kClosWayMask) {
        const std::vector<WayMask> m = random_masks(rng, g.ways, c.threads);
        core.set_way_ranges(m);
        oracle.set_way_ranges(m);
      } else if (c.enforcement == Enf::kSetColoring) {
        color_shift = rng.below(g.sets);  // recolor: pages move sets
      }
      for (std::uint32_t s = 0; s < g.sets; ++s) {
        expect_same_set(core, s, oracle, s);
        if (HasFatalFailure()) FAIL() << "after the retarget before op " << op;
      }
    }
    if (op % 9'001 == 9'000) {
      core.flush();
      oracle.flush();
    }
    const auto thread = static_cast<ThreadId>(rng.below(c.threads));
    const std::uint64_t block = next_block(rng, thread, lines);
    const AccessType type = next_type(rng);
    CacheCore::AccessResult got;
    ref::RefResult want;
    std::uint32_t set = 0;
    if (c.enforcement == Enf::kSetColoring) {
      // The coloring organization picks the set from the page's color.
      set = static_cast<std::uint32_t>((block / 4 + color_shift) % g.sets);
      got = core.access_in_set(thread, block, set, type);
      want = oracle.access_in_set(thread, block, set, type);
    } else {
      set = g.set_of_block(block);
      got = core.access(thread, block * g.line_bytes, type);
      want = oracle.access(thread, block, type);
    }
    ASSERT_EQ(got.hit, want.hit) << "op " << op;
    ASSERT_EQ(got.inter_thread_hit, want.inter_thread_hit) << "op " << op;
    ASSERT_EQ(got.inter_thread_eviction, want.inter_thread_eviction)
        << "op " << op;
    expect_same_set(core, set, oracle, set);
    if (HasFatalFailure()) FAIL() << "at op " << op;
  }
  std::uint64_t accesses = 0;
  for (ThreadId t = 0; t < c.threads; ++t) {
    expect_counters(core.stats().thread(t), oracle.counters(t), t);
    EXPECT_EQ(core.owned_total(t), oracle.owned_total(t));
    accesses += oracle.counters(t).accesses;
  }
  // Lookup telemetry counts every access once, whichever lookup ran, and
  // each lookup examines at least one slot or way.
  const CacheCore::LookupStats& lookups = core.lookup_stats();
  std::uint64_t bucketed = 0;
  for (const std::uint64_t n : lookups.probe_len_hist) bucketed += n;
  EXPECT_EQ(lookups.lookups, accesses);
  EXPECT_EQ(bucketed, accesses);
  EXPECT_GE(lookups.probed_slots, accesses);
}

std::vector<Case> core_cases() {
  std::vector<Case> cases;
  for (const std::uint32_t ways : {8u, 64u}) {
    for (const ReplacementKind repl : kAllReplacementKinds) {
      for (const Enf e : kAllEnforcements) {
        cases.push_back({repl, e, ways, 4});
      }
    }
  }
  return cases;
}

/// The private hierarchy's caches: one thread, no enforcement, at an
/// L1-like scan-probed associativity and a hash-indexed one.
std::vector<Case> single_thread_cases() {
  std::vector<Case> cases;
  for (const std::uint32_t ways : {4u, 16u}) {
    for (const ReplacementKind repl : kAllReplacementKinds) {
      cases.push_back({repl, Enf::kNone, ways, 1});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ReferenceCache,
                         ::testing::ValuesIn(core_cases()), case_name);
INSTANTIATE_TEST_SUITE_P(SingleThread, ReferenceCache,
                         ::testing::ValuesIn(single_thread_cases()),
                         case_name);

// ---------------------------------------------------------------------------
// BankedL2: N banks against one monolithic oracle.

std::unique_ptr<BankedL2> make_banked(const CacheGeometry& g,
                                      ThreadId threads, std::uint32_t banks,
                                      Enf enforcement,
                                      std::uint32_t clos_budget) {
  return std::make_unique<BankedL2>(g, threads, banks, enforcement,
                                    clos_budget);
}

class ReferenceCacheBanked : public ::testing::TestWithParam<Case> {};

TEST_P(ReferenceCacheBanked, BanksMatchOracle) {
  const Case& c = GetParam();
  const CacheGeometry g{
      .sets = 32, .ways = c.ways, .line_bytes = 64, .repl = c.repl};
  const std::uint32_t budget = 3;
  const std::unique_ptr<BankedL2> l2 =
      make_banked(g, c.threads, c.banks, c.enforcement, budget);
  ref::ReferenceCache oracle(g.sets, g.ways, c.threads, c.repl, c.enforcement);
  const auto install_plan = [&](const ClosPlan& plan) {
    std::vector<WayMask> masks;
    for (ThreadId t = 0; t < c.threads; ++t) {
      masks.push_back(plan.masks[plan.clos_of[t]]);
    }
    oracle.set_way_ranges(masks);
  };
  if (c.enforcement == Enf::kClosWayMask) install_plan(*l2->clos_plan());
  const auto shift = static_cast<std::uint32_t>(std::countr_zero(c.banks));
  const auto bank_set = [&](std::uint32_t gset) {
    return std::pair<const CacheCore&, std::uint32_t>(
        l2->bank(gset & (c.banks - 1)), gset >> shift);
  };
  const std::uint64_t lines = std::uint64_t{g.sets} * g.ways;
  Rng rng(0xba4c0000 + c.banks);

  for (int op = 0; op < 8'000; ++op) {
    if (op % 257 == 256) {
      if (c.enforcement == Enf::kClosWayMask) {
        std::vector<std::uint32_t> shares(c.threads);
        std::vector<std::uint32_t> clos_of(c.threads);
        for (ThreadId t = 0; t < c.threads; ++t) {
          shares[t] = 1 + static_cast<std::uint32_t>(rng.below(g.ways));
          clos_of[t] = static_cast<std::uint32_t>(rng.below(budget));
        }
        const ClosPlan plan = build_clos_plan(shares, clos_of, g.ways, budget);
        l2->apply_clos_plan(plan);
        install_plan(plan);
      } else if (c.enforcement != Enf::kNone) {
        const std::vector<std::uint32_t> t =
            random_targets(rng, g.ways, c.threads);
        l2->set_targets(t);
        oracle.set_targets(t);
        ASSERT_EQ(l2->flushed_on_last_retarget(),
                  oracle.flushed_on_last_retarget())
            << "retarget before op " << op;
      }
      for (std::uint32_t s = 0; s < g.sets; ++s) {
        const auto [bank, set] = bank_set(s);
        expect_same_set(bank, set, oracle, s);
        if (HasFatalFailure()) FAIL() << "after the retarget before op " << op;
      }
    }
    const auto thread = static_cast<ThreadId>(rng.below(c.threads));
    const std::uint64_t block = next_block(rng, thread, lines);
    const AccessType type = next_type(rng);
    const bool hit = l2->access(thread, block * g.line_bytes, type);
    ASSERT_EQ(hit, oracle.access(thread, block, type).hit) << "op " << op;
    expect_counters(l2->stats().thread(thread), oracle.counters(thread),
                    thread);
    const std::uint32_t gset = g.set_of_block(block);
    const auto [bank, set] = bank_set(gset);
    expect_same_set(bank, set, oracle, gset);
    if (HasFatalFailure()) FAIL() << "at op " << op;
  }
}

std::vector<Case> banked_cases() {
  std::vector<Case> cases;
  for (const std::uint32_t banks : {1u, 2u, 8u}) {
    for (const ReplacementKind repl : kAllReplacementKinds) {
      for (const Enf e : {Enf::kNone, Enf::kWayEvictionControl,
                          Enf::kWayFlushReconfigure, Enf::kClosWayMask}) {
        cases.push_back({repl, e, 16, 4, banks});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Banks, ReferenceCacheBanked,
                         ::testing::ValuesIn(banked_cases()), case_name);

// ---------------------------------------------------------------------------
// UtilityMonitor

struct UmonCase {
  std::uint32_t ways;
  std::uint32_t sampling_shift;
  /// Replacement of the monitored cache; the shadow tags are true LRU
  /// whatever it is, so the oracle is the same for every policy.
  ReplacementKind repl = ReplacementKind::kTrueLru;
};

std::string umon_case_name(const ::testing::TestParamInfo<UmonCase>& info) {
  const UmonCase& c = info.param;
  std::string name = std::to_string(c.ways) + "w_shift" +
                     std::to_string(c.sampling_shift);
  if (c.repl != ReplacementKind::kTrueLru) {
    name += "_" + std::string(to_string(c.repl));
  }
  return name;
}

std::vector<UmonCase> umon_cases() {
  std::vector<UmonCase> cases;
  for (const ReplacementKind repl : kAllReplacementKinds) {
    for (const std::uint32_t ways : {8u, 64u}) {
      for (const std::uint32_t shift : {0u, 3u}) {
        cases.push_back({.ways = ways, .sampling_shift = shift, .repl = repl});
      }
    }
  }
  return cases;
}

class ReferenceCacheUmon : public ::testing::TestWithParam<UmonCase> {};

TEST_P(ReferenceCacheUmon, ShadowDirectoryMatchesOracle) {
  const UmonCase& c = GetParam();
  const CacheGeometry g{
      .sets = 64, .ways = c.ways, .line_bytes = 64, .repl = c.repl};
  const ThreadId threads = 3;
  UtilityMonitor umon(g, threads, c.sampling_shift);
  ref::ReferenceUmon oracle(g.sets, g.ways, threads, c.sampling_shift);
  const std::uint64_t lines = std::uint64_t{g.sets} * g.ways;
  Rng rng(0x0a0a0000 + c.ways + c.sampling_shift);

  for (int op = 0; op < 30'000; ++op) {
    if (op % 5'003 == 5'002) {
      umon.reset_interval();
      oracle.reset_interval();
    }
    const auto thread = static_cast<ThreadId>(rng.below(threads));
    const std::uint64_t block = next_block(rng, thread, lines);
    umon.observe(thread, block * g.line_bytes);
    oracle.observe(thread, block);
    ASSERT_EQ(umon.sampled_accesses(thread), oracle.sampled_accesses(thread))
        << "op " << op;
    ASSERT_EQ(umon.sampled_misses(thread), oracle.sampled_misses(thread))
        << "op " << op;
    for (std::uint32_t d = 0; d < g.ways; ++d) {
      ASSERT_EQ(umon.hits_at_depth(thread, d), oracle.hits_at_depth(thread, d))
          << "depth " << d << " at op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shadow, ReferenceCacheUmon,
                         ::testing::ValuesIn(umon_cases()), umon_case_name);

}  // namespace
}  // namespace capart::mem
