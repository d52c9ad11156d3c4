#include "src/sim/cmp_system.hpp"

#include <numeric>

#include "src/common/check.hpp"

namespace capart::sim {

namespace {

// The shared way-granular organizations physically bank; the private and
// coloring organizations keep monolithic structures (banks then only drive
// the contention model below).
mem::L2BuildOptions l2_build_options(const SystemConfig& config) {
  const bool shared = config.l2_mode == mem::L2Mode::kSharedUnpartitioned ||
                      config.l2_mode == mem::L2Mode::kPartitionedShared ||
                      config.l2_mode == mem::L2Mode::kFlushReconfigureShared;
  return mem::L2BuildOptions{
      .banks = shared ? std::max<std::uint32_t>(1, config.l2_banks) : 1,
      .enforce = config.l2_enforce,
      .clos_budget = config.clos_budget,
  };
}

}  // namespace

CmpSystem::CmpSystem(const SystemConfig& config)
    : config_(config),
      timing_(config.timing),
      l2_(mem::make_l2(config.l2_mode, config.l2, config.num_threads,
                       l2_build_options(config))),
      counters_(config.num_threads),
      core_of_(config.num_threads) {
  CAPART_CHECK(config_.num_threads >= 1, "system needs at least one thread");
  std::iota(core_of_.begin(), core_of_.end(), ThreadId{0});
  if (config_.enable_utility_monitor) {
    umon_ = std::make_unique<mem::UtilityMonitor>(
        config_.l2, config_.num_threads, config_.umon_sampling_shift);
  }
  if (config_.l2_banks > 0) {
    bank_busy_until_.assign(config_.l2_banks, 0);
    bank_contention_.assign(config_.l2_banks, BankContention{});
  }
}

void CmpSystem::build_private_caches() {
  l1s_.reserve(config_.num_threads);
  for (ThreadId t = 0; t < config_.num_threads; ++t) {
    l1s_.emplace_back(config_.l1);
  }
  if (config_.enable_private_l2) {
    private_l2s_.reserve(config_.num_threads);
    for (ThreadId t = 0; t < config_.num_threads; ++t) {
      private_l2s_.emplace_back(config_.private_l2);
    }
  }
}

Cycles CmpSystem::memory_access(ThreadId thread, Addr addr, AccessType type,
                                bool prefetchable, Cycles now) {
  CAPART_CHECK(thread < config_.num_threads, "thread id out of range");
  if (l1s_.empty()) [[unlikely]] build_private_caches();
  cpu::CounterBlock& c = counters_.thread(thread);
  c.instructions += 1;
  c.l1_accesses += 1;

  cpu::MemoryLevel level = cpu::MemoryLevel::kL1;
  bool reaches_shared = !l1s_[core_of_[thread]].access(addr, type);
  if (reaches_shared) {
    c.l1_misses += 1;
    if (config_.enable_private_l2) {
      c.private_l2_accesses += 1;
      if (private_l2s_[core_of_[thread]].access(addr, type)) {
        c.private_l2_hits += 1;
        level = cpu::MemoryLevel::kPrivateL2;
        reaches_shared = false;
      } else {
        c.private_l2_misses += 1;
      }
    }
  }
  Cycles contention_wait = 0;
  if (reaches_shared) {
    level = shared_access(thread, addr, type, now, c, contention_wait);
  }
  const Cycles cost = timing_.memory_cost(level, prefetchable) +
                      contention_wait;
  c.exec_cycles += cost;
  return cost;
}

cpu::MemoryLevel CmpSystem::shared_access(ThreadId thread, Addr addr,
                                          AccessType type, Cycles now,
                                          cpu::CounterBlock& c,
                                          Cycles& contention_wait) {
  c.l2_accesses += 1;
  if (!bank_busy_until_.empty()) {
    // Serialize same-bank accesses: the requester waits until the bank is
    // free, then occupies it for one service slot.
    const auto bank = static_cast<std::uint32_t>(
        config_.l2.block_of(addr) % bank_busy_until_.size());
    const Cycles start = std::max(now, bank_busy_until_[bank]);
    contention_wait = start - now;
    bank_busy_until_[bank] = start + config_.l2_bank_service_cycles;
    c.contention_wait_cycles += contention_wait;
    BankContention& bc = bank_contention_[bank];
    ++bc.accesses;
    if (contention_wait > 0) {
      ++bc.conflicts;
      bc.wait_cycles += contention_wait;
    }
  }
  if (umon_ != nullptr) umon_->observe(thread, addr);
  if (l2_->access(thread, addr, type)) {
    c.l2_hits += 1;
    return cpu::MemoryLevel::kSharedCache;
  }
  c.l2_misses += 1;
  return cpu::MemoryLevel::kMemory;
}

Cycles CmpSystem::memory_access_resolved(ThreadId thread, Addr addr,
                                         AccessType type, bool prefetchable,
                                         trace::ResolvedLevel resolved,
                                         Cycles now) {
  CAPART_DCHECK(thread < config_.num_threads, "thread id out of range");
  cpu::CounterBlock& c = counters_.thread(thread);
  c.instructions += 1;
  c.l1_accesses += 1;

  // Replay the private-hierarchy outcome's counter effects without touching
  // the private caches — the resolve pass already ran them. The branch
  // structure mirrors memory_access exactly.
  cpu::MemoryLevel level = cpu::MemoryLevel::kL1;
  Cycles contention_wait = 0;
  switch (resolved) {
    case trace::ResolvedLevel::kL1Hit:
      break;
    case trace::ResolvedLevel::kPrivateL2Hit:
      c.l1_misses += 1;
      c.private_l2_accesses += 1;
      c.private_l2_hits += 1;
      level = cpu::MemoryLevel::kPrivateL2;
      break;
    case trace::ResolvedLevel::kShared:
      c.l1_misses += 1;
      if (config_.enable_private_l2) {
        c.private_l2_accesses += 1;
        c.private_l2_misses += 1;
      }
      level = shared_access(thread, addr, type, now, c, contention_wait);
      break;
    case trace::ResolvedLevel::kUnresolved:
      CAPART_CHECK(false, "memory_access_resolved: unresolved op");
  }
  const Cycles cost = timing_.memory_cost(level, prefetchable) +
                      contention_wait;
  c.exec_cycles += cost;
  return cost;
}

Cycles CmpSystem::non_memory(ThreadId thread, Instructions count) {
  CAPART_CHECK(thread < config_.num_threads, "thread id out of range");
  cpu::CounterBlock& c = counters_.thread(thread);
  c.instructions += count;
  const Cycles cost = timing_.non_memory_cost(count);
  c.exec_cycles += cost;
  return cost;
}

void CmpSystem::bind(ThreadId thread, ThreadId core) {
  CAPART_CHECK(thread < config_.num_threads && core < config_.num_threads,
               "bind: thread or core out of range");
  core_of_[thread] = core;
}

ThreadId CmpSystem::core_of(ThreadId thread) const {
  CAPART_CHECK(thread < config_.num_threads, "core_of: thread out of range");
  return core_of_[thread];
}

}  // namespace capart::sim
