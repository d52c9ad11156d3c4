// Banked shared L2 (src/mem/banked_l2): address-interleaved banking must be
// a pure structural change. tests/test_reference_cache.cpp holds 1, 2 and 8
// banks to one monolithic reference model access by access; this file
// checks the banking itself — the address-to-bank map, per-bank
// introspection, stats aggregation and the factory's choice of organization.
#include "src/mem/banked_l2.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/l2_organization.hpp"

namespace capart::mem {
namespace {

CacheGeometry geometry() { return {.sets = 16, .ways = 4, .line_bytes = 64}; }

/// A deterministic access stream with enough reuse to produce hits: thread,
/// block drawn from a small footprint.
struct Access {
  ThreadId thread;
  Addr addr;
  AccessType type;
};

std::vector<Access> make_stream(ThreadId threads, std::size_t n) {
  Rng rng(12345);
  std::vector<Access> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(threads));
    const std::uint64_t block = rng.below(256);
    const AccessType type =
        rng.below(4) == 0 ? AccessType::kWrite : AccessType::kRead;
    stream.push_back({t, Addr{block * 64}, type});
  }
  return stream;
}

TEST(BankedL2, EveryAddressMapsToExactlyOneBank) {
  BankedL2 banked(geometry(), 2, 4,
                  PartitionEnforcement::kWayEvictionControl);
  // The bank-select bits are the low set bits: consecutive blocks rotate
  // through the banks, and each bank holds sets/banks sets.
  EXPECT_EQ(banked.bank_count(), 4u);
  for (std::uint64_t block = 0; block < 64; ++block) {
    EXPECT_EQ(banked.bank_of(Addr{block * 64}), block % 4);
  }
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_EQ(banked.bank(b).geometry().sets, 4u);
    EXPECT_EQ(banked.bank(b).geometry().ways, 4u);
  }
}

TEST(BankedL2, PerBankStatsSumToAggregate) {
  BankedL2 banked(geometry(), 2, 4,
                  PartitionEnforcement::kWayEvictionControl);
  for (const Access& a : make_stream(2, 2000)) {
    banked.access(a.thread, a.addr, a.type);
  }
  std::uint64_t bank_accesses = 0;
  std::uint64_t bank_hits = 0;
  for (std::uint32_t b = 0; b < banked.bank_count(); ++b) {
    bank_accesses += banked.bank(b).stats().total().accesses;
    bank_hits += banked.bank(b).stats().total().hits;
    EXPECT_GT(banked.bank(b).stats().total().accesses, 0u)
        << "bank " << b << " never hit by the stream";
  }
  EXPECT_EQ(banked.stats().total().accesses, bank_accesses);
  EXPECT_EQ(banked.stats().total().hits, bank_hits);
  EXPECT_EQ(bank_accesses, 2000u);
}

TEST(BankedL2, FactoryBanksSharedModesOnly) {
  // The shared way-granular modes are one BankedL2 at every bank count, a
  // single bank included; private and coloring modes stay monolithic
  // (banks only feed the contention model).
  for (const std::uint32_t banks : {0u, 1u, 4u}) {
    const L2BuildOptions opts{.banks = banks};
    for (const L2Mode mode :
         {L2Mode::kSharedUnpartitioned, L2Mode::kPartitionedShared,
          L2Mode::kFlushReconfigureShared}) {
      auto l2 = make_l2(mode, geometry(), 2, opts);
      const auto* banked = dynamic_cast<BankedL2*>(l2.get());
      ASSERT_NE(banked, nullptr) << to_string(mode);
      EXPECT_EQ(banked->bank_count(), std::max(banks, 1u));
      EXPECT_EQ(l2->mode(), mode);
      EXPECT_EQ(l2->partitionable(), mode != L2Mode::kSharedUnpartitioned);
    }
    auto priv = make_l2(L2Mode::kPrivatePerThread, geometry(), 2, opts);
    EXPECT_EQ(dynamic_cast<BankedL2*>(priv.get()), nullptr);
    auto colored = make_l2(L2Mode::kSetPartitionedShared, geometry(), 2, opts);
    EXPECT_EQ(dynamic_cast<BankedL2*>(colored.get()), nullptr);
  }
}

TEST(BankedL2, FactoryClosUsesBankedOrganization) {
  const L2BuildOptions opts{
      .banks = 1, .enforce = L2Enforce::kClosWayMask, .clos_budget = 2};
  // CLOS enforcement supports more threads than ways — 6 threads on 4 ways.
  auto l2 = make_l2(L2Mode::kPartitionedShared, geometry(), 6, opts);
  EXPECT_TRUE(l2->clos_enforced());
  EXPECT_TRUE(l2->partitionable());
  ASSERT_NE(l2->clos_plan(), nullptr);
  EXPECT_EQ(l2->clos_plan()->masks.size(), 2u);
  for (const Access& a : make_stream(6, 2000)) {
    l2->access(a.thread, a.addr, a.type);
  }
  EXPECT_GT(l2->stats().total().hits, 0u);
}

TEST(BankedL2, StatsAggregationIsRepeatable) {
  // stats() lazily rebuilds the aggregate; calling it twice (and after more
  // traffic) must never double-count.
  BankedL2 banked(geometry(), 2, 2, PartitionEnforcement::kNone);
  const std::vector<Access> stream = make_stream(2, 100);
  for (const Access& a : stream) {
    banked.access(a.thread, a.addr, a.type);
  }
  EXPECT_EQ(banked.stats().total().accesses, 100u);
  EXPECT_EQ(banked.stats().total().accesses, 100u);
  for (const Access& a : stream) {
    banked.access(a.thread, a.addr, a.type);
  }
  EXPECT_EQ(banked.stats().total().accesses, 200u);
}

}  // namespace
}  // namespace capart::mem
