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
#include "src/mem/l2_organization.hpp"
#include "src/mem/set_assoc_cache.hpp"
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
  std::uint32_t umon_sampling_shift = 3;
  /// Inserts a private per-core L2 between the L1 and the shared cache, so
  /// the partitionable shared component becomes an L3 (Dunnington-style;
  /// paper footnote 1 — "our work can target any shared cache component").
  bool enable_private_l2 = false;
  /// Geometry of each private L2 slice (default 64 KB, 8-way).
  mem::CacheGeometry private_l2 = mem::kDefaultPrivateL2;
  /// Banks of the shared cache; 0 keeps the historical monolithic structure
  /// with no contention (infinite bandwidth, the default). With N banks two
  /// things happen: (timing) concurrent accesses to the same bank serialize
  /// at `l2_bank_service_cycles` apart with the waiting time charged to the
  /// requester, and (structure) the shared way-granular organizations build
  /// N address-interleaved banks (see mem::BankedL2; contents stay
  /// bit-identical to a monolithic cache for any power-of-two count).
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

class CmpSystem {
 public:
  explicit CmpSystem(const SystemConfig& config);

  /// Executes one memory instruction from `thread` and returns its cycle
  /// cost. Updates counters and cache state. The access goes through the L1
  /// of the core the thread is currently bound to, then (on L1 miss) the L2.
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
  /// updated, exactly as memory_access would have. Valid only while threads
  /// stay on their initial 1:1 core binding (both resolves refuse migration
  /// schedules). Counter and timing effects are bit-identical.
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

  /// The shared-cache leg common to memory_access and its resolved variant:
  /// bank contention, monitor feed, L2 lookup. Returns the level reached and
  /// adds any bank wait to `contention_wait`.
  cpu::MemoryLevel shared_access(ThreadId thread, Addr addr, AccessType type,
                                 Cycles now, cpu::CounterBlock& c,
                                 Cycles& contention_wait);

  SystemConfig config_;
  cpu::TimingModel timing_;
  std::vector<mem::SetAssocCache> l1s_;          // one per core; lazy
  std::vector<mem::SetAssocCache> private_l2s_;  // one per core, optional
  std::unique_ptr<mem::L2Organization> l2_;
  std::unique_ptr<mem::UtilityMonitor> umon_;
  std::vector<Cycles> bank_busy_until_;
  std::vector<BankContention> bank_contention_;
  cpu::PerfCounters counters_;
  std::vector<ThreadId> core_of_;
};

}  // namespace capart::sim
