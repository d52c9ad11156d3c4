// The simulated chip multiprocessor: per-core private L1s, one L2
// organization, the timing model, and the performance-counter file
// (paper §III-A / Fig 2).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/cpu/perf_counters.hpp"
#include "src/cpu/timing_model.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/utility_monitor.hpp"
#include "src/trace/access.hpp"

namespace capart::sim {

/// Hardware configuration (defaults mirror the paper's Fig 2).
struct SystemConfig {
  ThreadId num_threads = 4;
  mem::CacheGeometry l1 = mem::kDefaultL1;
  mem::CacheGeometry l2 = mem::kDefaultL2;
  mem::L2Mode l2_mode = mem::L2Mode::kPartitionedShared;
  cpu::TimingParams timing{};
  /// Instantiates the shadow-tag utility monitor on the L2 (required by the
  /// measured-curve policies; extra hardware, so off by default).
  bool enable_utility_monitor = false;
  std::uint32_t umon_sampling_shift = mem::UtilityMonitor::kSamplingShift;
  /// Inserts a private per-core L2 between the L1 and the shared cache, so
  /// the partitionable shared component becomes an L3 (Dunnington-style;
  /// paper footnote 1 — "our work can target any shared cache component").
  bool enable_private_l2 = false;
  /// Geometry of each private L2 slice (default 64 KB, 8-way).
  mem::CacheGeometry private_l2 = mem::kDefaultPrivateL2;
  /// Banks of the shared cache; 0 keeps one bank with no contention
  /// (infinite bandwidth, the default). With N banks two things happen:
  /// (timing) concurrent accesses to the same bank serialize at
  /// `l2_bank_service_cycles` apart with the waiting time charged to the
  /// requester, and (structure) the shared way-granular organizations build
  /// N address-interleaved banks (see mem::BankedL2; contents stay
  /// bit-identical to one bank for any power-of-two count).
  std::uint32_t l2_banks = 0;
  Cycles l2_bank_service_cycles = 4;
  /// Partition enforcement flavor of the shared L2 (kClosWayMask = CAT-style
  /// way masks with `clos_budget` classes of service).
  mem::L2Enforce l2_enforce = mem::L2Enforce::kModeDefault;
  std::uint32_t clos_budget = 8;
};

/// Per-bank contention telemetry of the shared cache (the timing model's
/// queueing view; per-bank hit/miss stats live on mem::BankedL2).
struct BankContention {
  std::uint64_t accesses = 0;
  /// Accesses that found the bank busy and had to wait.
  std::uint64_t conflicts = 0;
  Cycles wait_cycles = 0;
};

/// The private-hierarchy leg of one access: the L1, then on a miss the
/// private L2 slice when there is one (`private_l2` non-null). Returns the
/// level the access resolved to. CmpSystem::memory_access runs it on the
/// thread's current core, and ThreadResolver on a thread's own caches ahead
/// of the driver, so a live and a resolved op reach the same level.
inline trace::ResolvedLevel resolve_private(mem::CacheCore& l1,
                                            mem::CacheCore* private_l2,
                                            Addr addr, AccessType type) {
  if (l1.access(0, addr, type).hit) return trace::ResolvedLevel::kL1Hit;
  if (private_l2 != nullptr && private_l2->access(0, addr, type).hit) {
    return trace::ResolvedLevel::kPrivateL2Hit;
  }
  return trace::ResolvedLevel::kShared;
}

class CmpSystem {
 public:
  explicit CmpSystem(const SystemConfig& config);

  /// Executes one memory instruction from `thread` and returns its cycle
  /// cost. Updates counters and cache state. The access goes through the
  /// private caches of the core the thread is currently bound to
  /// (resolve_private), then, if it misses them, the shared L2: it is
  /// memory_access_resolved for the level the private caches gave.
  /// `prefetchable` marks sequential-streaming accesses whose DRAM latency
  /// the prefetchers mostly hide (see cpu::TimingParams). `now` is the
  /// issuing thread's cycle clock, used only by the bank-contention model
  /// (pass 0 when contention is disabled).
  Cycles memory_access(ThreadId thread, Addr addr, AccessType type,
                       bool prefetchable = false, Cycles now = 0);

  /// memory_access for a *resolved* op: the private-level outcome (`level` =
  /// L1 hit / private-L2 hit / reaches the shared cache) was precomputed by
  /// a spooled or streamed resolve over the identical private hierarchy, so
  /// the private caches are not simulated again — only their counters are
  /// updated. Valid only while threads stay on their initial 1:1 core
  /// binding (both resolves refuse migration schedules).
  Cycles memory_access_resolved(ThreadId thread, Addr addr, AccessType type,
                                bool prefetchable,
                                trace::ResolvedLevel level, Cycles now);

  /// Executes `count` non-memory instructions from `thread`.
  Cycles non_memory(ThreadId thread, Instructions count);

  /// Rebinds `thread` to `core` (thread-migration ablation; paper §VII notes
  /// its scheme tolerates rare migrations). Threads start bound 1:1.
  void bind(ThreadId thread, ThreadId core);

  ThreadId core_of(ThreadId thread) const;

  cpu::PerfCounters& counters() noexcept { return counters_; }
  const cpu::PerfCounters& counters() const noexcept { return counters_; }
  mem::L2Organization& l2() noexcept { return *l2_; }
  const mem::L2Organization& l2() const noexcept { return *l2_; }
  const SystemConfig& config() const noexcept { return config_; }
  const cpu::TimingModel& timing() const noexcept { return timing_; }

  /// Null unless SystemConfig::enable_utility_monitor was set.
  mem::UtilityMonitor* utility_monitor() noexcept { return umon_.get(); }
  const mem::UtilityMonitor* utility_monitor() const noexcept {
    return umon_.get();
  }

  /// Per-bank contention counters; empty when l2_banks == 0.
  std::span<const BankContention> bank_contention() const noexcept {
    return bank_contention_;
  }

 private:
  /// Builds the per-core L1s (and private L2s) on the first unresolved
  /// access. Runs replaying resolved ops — spooled or streamed, which is
  /// every run without migrations or caller-supplied sources — never
  /// simulate private caches here, so they never pay for them.
  void build_private_caches();

  /// The shared-cache leg of an access that missed the private caches:
  /// bank contention, monitor feed, L2 lookup. Returns the level reached and
  /// adds any bank wait to `contention_wait`.
  cpu::MemoryLevel shared_access(ThreadId thread, Addr addr, AccessType type,
                                 Cycles now, cpu::CounterBlock& c,
                                 Cycles& contention_wait);

  SystemConfig config_;
  cpu::TimingModel timing_;
  // Single-thread caches, one per core: the L1s (built lazily) and the
  // optional private L2s.
  std::vector<mem::CacheCore> l1s_;
  std::vector<mem::CacheCore> private_l2s_;
  std::unique_ptr<mem::L2Organization> l2_;
  std::unique_ptr<mem::UtilityMonitor> umon_;
  std::vector<Cycles> bank_busy_until_;
  std::vector<BankContention> bank_contention_;
  cpu::PerfCounters counters_;
  std::vector<ThreadId> core_of_;
};

}  // namespace capart::sim
