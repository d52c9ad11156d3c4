#include "src/sim/cmp_system.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"

namespace capart::sim {
namespace {

SystemConfig small_config() {
  SystemConfig c;
  c.num_threads = 2;
  c.l1 = {.sets = 4, .ways = 2, .line_bytes = 64};
  c.l2 = {.sets = 8, .ways = 4, .line_bytes = 64};
  c.l2_mode = mem::L2Mode::kPartitionedShared;
  return c;
}

TEST(CmpSystem, ColdAccessReachesMemory) {
  CmpSystem sys(small_config());
  const Cycles cost = sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 200u);
  const auto& c = sys.counters().thread(0);
  EXPECT_EQ(c.instructions, 1u);
  EXPECT_EQ(c.l1_accesses, 1u);
  EXPECT_EQ(c.l1_misses, 1u);
  EXPECT_EQ(c.l2_accesses, 1u);
  EXPECT_EQ(c.l2_misses, 1u);
  EXPECT_EQ(c.l2_hits, 0u);
  EXPECT_EQ(c.exec_cycles, cost);
}

TEST(CmpSystem, SecondAccessHitsL1) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  const Cycles cost = sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(cost, 1u);
  EXPECT_EQ(sys.counters().thread(0).l1_misses, 1u);  // unchanged
}

TEST(CmpSystem, L2HitAfterL1Eviction) {
  CmpSystem sys(small_config());
  // Fill L1 set 0 (2 ways) with three conflicting lines: 0, 256*?? — L1 has
  // 4 sets, so blocks 0, 4, 8 conflict in L1 set 0. In L2 (8 sets) they land
  // in sets 0, 4, 0 — no eviction there (4 ways).
  sys.memory_access(0, 0 * 64, AccessType::kRead);
  sys.memory_access(0, 4 * 64, AccessType::kRead);
  sys.memory_access(0, 8 * 64, AccessType::kRead);  // evicts block 0 from L1
  const Cycles cost = sys.memory_access(0, 0 * 64, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 12u);  // L1 miss, L2 hit
  EXPECT_EQ(sys.counters().thread(0).l2_hits, 1u);
}

TEST(CmpSystem, PrefetchableMissPaysReducedPenalty) {
  CmpSystem sys(small_config());
  const Cycles cost =
      sys.memory_access(0, 64 * 100, AccessType::kRead, /*prefetchable=*/true);
  EXPECT_EQ(cost, 1u + 40u);
}

TEST(CmpSystem, NonMemoryAdvancesCountersOnly) {
  CmpSystem sys(small_config());
  const Cycles cost = sys.non_memory(1, 500);
  EXPECT_EQ(cost, 500u);
  EXPECT_EQ(sys.counters().thread(1).instructions, 500u);
  EXPECT_EQ(sys.counters().thread(1).l1_accesses, 0u);
}

TEST(CmpSystem, L1sArePrivatePerCore) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  // Thread 1 misses its own L1 but hits the shared L2.
  const Cycles cost = sys.memory_access(1, 0, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 12u);
}

TEST(CmpSystem, DefaultBindingIsIdentity) {
  CmpSystem sys(small_config());
  EXPECT_EQ(sys.core_of(0), 0u);
  EXPECT_EQ(sys.core_of(1), 1u);
}

TEST(CmpSystem, MigrationColdStartsTheNewL1) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u);  // warm L1
  // Migrate thread 0 to core 1: its next access misses the (cold) L1 of
  // core 1 but still hits L2.
  sys.bind(0, 1);
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u + 12u);
}

TEST(CmpSystem, L2OwnershipFollowsThreadNotCore) {
  CmpSystem sys(small_config());
  sys.bind(0, 1);
  sys.bind(1, 0);
  sys.memory_access(0, 0, AccessType::kRead);
  // The L2 attributes the fill to thread 0 regardless of core binding.
  const auto& stats = sys.l2().stats();
  EXPECT_EQ(stats.thread(0).misses, 1u);
  EXPECT_EQ(stats.thread(1).accesses, 0u);
}

TEST(CmpSystem, CountersMatchL2Stats) {
  CmpSystem sys(small_config());
  // Drive a little traffic and verify the two accounting paths agree on L2
  // events (the PMU view and the cache's own view).
  for (std::uint64_t i = 0; i < 500; ++i) {
    sys.memory_access(i % 2, (i * 37 % 64) * 64, AccessType::kRead);
  }
  for (ThreadId t = 0; t < 2; ++t) {
    const auto& pmu = sys.counters().thread(t);
    const auto& l2 = sys.l2().stats().thread(t);
    EXPECT_EQ(pmu.l2_accesses, l2.accesses);
    EXPECT_EQ(pmu.l2_hits, l2.hits);
    EXPECT_EQ(pmu.l2_misses, l2.misses);
  }
}

TEST(CmpSystem, ThreeLevelHierarchyChargesEachLevel) {
  SystemConfig cfg = small_config();
  cfg.enable_private_l2 = true;
  cfg.private_l2 = {.sets = 4, .ways = 2, .line_bytes = 64};
  CmpSystem sys(cfg);
  // Cold: misses L1, private L2 and the shared cache.
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u + 200u);
  const auto& c = sys.counters().thread(0);
  EXPECT_EQ(c.private_l2_accesses, 1u);
  EXPECT_EQ(c.private_l2_misses, 1u);
  EXPECT_EQ(c.l2_accesses, 1u);  // the shared cache saw it too
  // Warm in L1: base cost.
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u);
}

TEST(CmpSystem, PrivateL2HitShieldsTheSharedCache) {
  SystemConfig cfg = small_config();
  cfg.enable_private_l2 = true;
  cfg.private_l2 = {.sets = 8, .ways = 2, .line_bytes = 64};
  CmpSystem sys(cfg);
  // Blocks 0, 4, 8 conflict in the 4-set L1 (block 0 gets evicted there)
  // but spread over the 8-set private L2 (set 0 holds {0, 8}, set 4 holds
  // {4}): re-touching block 0 misses L1, hits the private L2, and never
  // reaches the shared cache.
  sys.memory_access(0, 0 * 64, AccessType::kRead);
  sys.memory_access(0, 4 * 64, AccessType::kRead);
  sys.memory_access(0, 8 * 64, AccessType::kRead);
  const auto before = sys.counters().thread(0).l2_accesses;
  const Cycles cost = sys.memory_access(0, 0 * 64, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 8u);  // private L2 hit penalty
  EXPECT_EQ(sys.counters().thread(0).private_l2_hits, 1u);
  EXPECT_EQ(sys.counters().thread(0).l2_accesses, before);
}

TEST(CmpSystem, TwoLevelModeHasNoPrivateL2Traffic) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(sys.counters().thread(0).private_l2_accesses, 0u);
}

TEST(CmpSystem, BankContentionSerializesSameBankAccesses) {
  SystemConfig cfg = small_config();
  cfg.l2_banks = 2;
  cfg.l2_bank_service_cycles = 10;
  CmpSystem sys(cfg);
  // Two cold accesses to blocks 0 and 2 (both map to bank 0 of 2) issued at
  // the same clock: the second waits a full service slot.
  const Cycles first = sys.memory_access(0, 0 * 64, AccessType::kRead,
                                         false, /*now=*/100);
  const Cycles second = sys.memory_access(1, 2 * 64, AccessType::kRead,
                                          false, /*now=*/100);
  EXPECT_EQ(first, 1u + 200u);
  EXPECT_EQ(second, 1u + 200u + 10u);
  EXPECT_EQ(sys.counters().thread(1).contention_wait_cycles, 10u);
  EXPECT_EQ(sys.counters().thread(0).contention_wait_cycles, 0u);
}

TEST(CmpSystem, DifferentBanksDoNotContend) {
  SystemConfig cfg = small_config();
  cfg.l2_banks = 2;
  cfg.l2_bank_service_cycles = 10;
  CmpSystem sys(cfg);
  sys.memory_access(0, 0 * 64, AccessType::kRead, false, 100);  // bank 0
  const Cycles other = sys.memory_access(1, 1 * 64, AccessType::kRead,
                                         false, 100);  // bank 1
  EXPECT_EQ(other, 1u + 200u);
}

TEST(CmpSystem, BankFreesUpOverTime) {
  SystemConfig cfg = small_config();
  cfg.l2_banks = 1;
  cfg.l2_bank_service_cycles = 10;
  CmpSystem sys(cfg);
  sys.memory_access(0, 0 * 64, AccessType::kRead, false, 100);
  // Issued after the bank went idle: no wait.
  const Cycles later = sys.memory_access(1, 2 * 64, AccessType::kRead,
                                         false, 200);
  EXPECT_EQ(later, 1u + 200u);
}

TEST(CmpSystem, ContentionDisabledByDefault) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead, false, 100);
  const Cycles second = sys.memory_access(1, 256 * 64, AccessType::kRead,
                                          false, 100);
  EXPECT_EQ(second, 1u + 200u);
  EXPECT_EQ(sys.counters().thread(1).contention_wait_cycles, 0u);
}

// The utility monitor is fed synchronously from the shared-cache access
// path: every access that reaches the shared cache (simulated or resolved)
// is in the monitor's counters before the next access, and private-level
// hits never are.
TEST(CmpSystem, UtilityMonitorObservesEverySharedAccess) {
  EXPECT_EQ(CmpSystem(small_config()).utility_monitor(), nullptr);
  SystemConfig cfg = small_config();
  cfg.enable_utility_monitor = true;
  cfg.umon_sampling_shift = 0;  // monitor every set
  CmpSystem sys(cfg);
  const mem::UtilityMonitor* umon = sys.utility_monitor();
  ASSERT_NE(umon, nullptr);

  Rng rng(17);
  for (int i = 0; i < 2'000; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(2));
    const Addr addr = 64 * rng.below(48);
    if (i % 3 == 0) {
      // Resolved ops: an L1 hit stays private, a shared op reaches the L2.
      const trace::ResolvedLevel level = rng.below(2) == 0
                                             ? trace::ResolvedLevel::kL1Hit
                                             : trace::ResolvedLevel::kShared;
      sys.memory_access_resolved(t, addr, AccessType::kRead, false, level, 0);
    } else {
      sys.memory_access(t, addr, AccessType::kRead);
    }
    for (ThreadId u = 0; u < 2; ++u) {
      ASSERT_EQ(umon->sampled_accesses(u), sys.counters().thread(u).l2_accesses)
          << "access " << i << " thread " << u;
    }
  }
  EXPECT_GT(sys.counters().thread(0).l1_accesses,
            sys.counters().thread(0).l2_accesses);
}

TEST(CmpSystem, RejectsOutOfRangeThread) {
  CmpSystem sys(small_config());
  EXPECT_DEATH(sys.memory_access(2, 0, AccessType::kRead), "out of range");
  EXPECT_DEATH(sys.non_memory(2, 1), "out of range");
  EXPECT_DEATH(sys.bind(0, 2), "out of range");
}

}  // namespace
}  // namespace capart::sim
