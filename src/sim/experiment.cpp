#include "src/sim/experiment.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <system_error>

#include "src/common/check.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/model_based_policy.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/core/runtime_system.hpp"
#include "src/mem/set_partitioned_l2.hpp"
#include "src/mem/utility_monitor.hpp"
#include "src/obs/events.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/cmp_system.hpp"
#include "src/sim/streamed_resolve.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"

namespace capart::sim {

Addr private_region_base(ThreadId t) noexcept {
  return (static_cast<Addr>(t) + 1) << 42;
}

Addr shared_region_base() noexcept { return Addr{1} << 52; }

void ExperimentConfig::validate() const {
  if (num_threads < 1) {
    throw ConfigError("threads", "experiment needs at least one thread");
  }
  if (!core::is_no_policy(policy)) {
    core::registry().require(policy, "policy");
  }
  policy_options.validate();
  if (num_intervals < 1) {
    throw ConfigError("intervals", "experiment needs >= 1 interval");
  }
  if (interval_instructions < 1'000) {
    throw ConfigError("interval-instr",
                      "interval too short for stable counters (need >= 1000 "
                      "instructions)");
  }
  if (num_intervals > ~Instructions{0} / interval_instructions) {
    throw ConfigError("interval-instr",
                      std::to_string(num_intervals) + " intervals of " +
                          std::to_string(interval_instructions) +
                          " instructions overflow a 64-bit count");
  }
  l1.validate();
  l2.validate();
  if (enable_private_l2) private_l2.validate();
  if (l2_mode == mem::L2Mode::kSetPartitionedShared) {
    // Page coloring pairs one color per way, each color a run of whole sets
    // (mem::SetPartitionedL2), and colors whole pages.
    if (l2.sets % l2.ways != 0) {
      throw ConfigError(
          "l2-ways",
          "coloring needs --l2-ways to divide --l2-sets (one color per way; " +
              std::to_string(l2.ways) + " ways, " + std::to_string(l2.sets) +
              " sets)");
    }
    if (l2.line_bytes > mem::kColoringPageBytes) {
      throw ConfigError("line_bytes",
                        "coloring needs l2 lines no larger than its " +
                            std::to_string(mem::kColoringPageBytes) +
                            "-byte pages (got " +
                            std::to_string(l2.line_bytes) + ")");
    }
  }
  const core::Partitioner* partitioner =
      core::is_no_policy(policy) ? nullptr : core::registry().find(policy);
  if (partitioner != nullptr && partitioner->needs_utility_monitor &&
      (l2.sets >> mem::UtilityMonitor::kSamplingShift) < 1) {
    throw ConfigError(
        "l2-sets",
        "policy '" + policy + "' samples every " +
            std::to_string(1u << mem::UtilityMonitor::kSamplingShift) +
            "th set of its utility monitor; --l2-sets=" +
            std::to_string(l2.sets) + " leaves none");
  }
  const bool clos = l2_enforce == mem::L2Enforce::kClosWayMask;
  if (clos) {
    if (l2_mode != mem::L2Mode::kPartitionedShared) {
      throw ConfigError("l2-enforce",
                        "clos way masks require --l2-mode=partitioned (got " +
                            std::string(to_string(l2_mode)) + ")");
    }
    if (clos_budget < 1 || clos_budget > l2.ways) {
      throw ConfigError("clos-budget",
                        "clos budget must be in [1, l2 ways] (" +
                            std::to_string(clos_budget) + " CLOSes, " +
                            std::to_string(l2.ways) + " ways)");
    }
  } else {
    if (l2_enforce == mem::L2Enforce::kEvictionControl &&
        l2_mode != mem::L2Mode::kPartitionedShared &&
        l2_mode != mem::L2Mode::kFlushReconfigureShared) {
      throw ConfigError("l2-enforce",
                        "eviction control requires a way-partitioned mode");
    }
    // Non-CLOS way-granular organizations — and any policy driving the L2
    // through per-thread targets — keep >= 1 way per thread; catching the
    // violation here names the flags instead of aborting in cache setup.
    // Clustering threads onto CLOS way masks (--l2-enforce=clos) is the
    // organization that supports threads > ways.
    const bool way_granular =
        l2_mode == mem::L2Mode::kPartitionedShared ||
        l2_mode == mem::L2Mode::kFlushReconfigureShared ||
        l2_mode == mem::L2Mode::kPrivatePerThread ||
        l2_mode == mem::L2Mode::kSetPartitionedShared;
    if ((way_granular || !core::is_no_policy(policy)) &&
        l2.ways < num_threads) {
      throw ConfigError(
          "l2-ways",
          "l2 needs at least one way per thread (" + std::to_string(l2.ways) +
              " ways, " + std::to_string(num_threads) +
              " threads); use --l2-enforce=clos to run more threads than "
              "ways");
    }
  }
  if (trace_spool_max_bytes > 0 && trace_spool_dir.empty()) {
    throw ConfigError("trace-dir-max-bytes",
                      "--trace-dir-max-bytes caps a spool directory and needs "
                      "--trace-dir (got --trace-dir-max-bytes=" +
                          std::to_string(trace_spool_max_bytes) +
                          " without it)");
  }
  // The spool writes its entries straight into the directory, so a missing
  // one would fail each arm at its first write, naming a temp file.
  std::error_code dir_error;
  if (!trace_spool_dir.empty() &&
      !std::filesystem::is_directory(trace_spool_dir, dir_error)) {
    throw ConfigError("trace-dir", "--trace-dir=" + trace_spool_dir +
                                       " is not an existing directory");
  }
  if (l2_banks > 1) {
    if (!std::has_single_bit(l2_banks)) {
      throw ConfigError("l2-banks", "bank count must be a power of two (got " +
                                        std::to_string(l2_banks) + ")");
    }
    if (l2_banks > l2.sets) {
      throw ConfigError("l2-banks", "more banks than cache sets (" +
                                        std::to_string(l2_banks) + " banks, " +
                                        std::to_string(l2.sets) + " sets)");
    }
  }
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

struct PreparedExperiment::Impl {
  explicit Impl(const SystemConfig& sys_config) : system(sys_config) {}

  CmpSystem system;
  std::unique_ptr<Driver> driver;
  std::unique_ptr<core::RuntimeSystem> runtime;
};

PreparedExperiment::PreparedExperiment(
    const ExperimentConfig& config,
    std::vector<std::unique_ptr<trace::OpSource>> sources)
    : config_(config) {
  config_.validate();

  const auto wall_start = std::chrono::steady_clock::now();
  if (config_.obs.sink != nullptr) {
    config_.obs.sink->on_manifest({config_.obs.run_name, config_});
  }

  const trace::BenchmarkProfile profile =
      trace::make_profile(config_.profile, config_.num_threads);
  const core::Partitioner* partitioner =
      core::is_no_policy(config_.policy)
          ? nullptr
          : &core::registry().require(config_.policy, "policy");

  SystemConfig sys_config{
      .num_threads = config_.num_threads,
      .l1 = config_.l1,
      .l2 = config_.l2,
      .l2_mode = config_.l2_mode,
      .timing = config_.timing,
      // Measured-curve policies model monitoring hardware; provision it.
      .enable_utility_monitor =
          partitioner != nullptr && partitioner->needs_utility_monitor,
      .umon_sampling_shift = mem::UtilityMonitor::kSamplingShift,
      .enable_private_l2 = config_.enable_private_l2,
      .private_l2 = config_.private_l2,
      .l2_banks = config_.l2_banks,
      .l2_bank_service_cycles = config_.l2_bank_service_cycles,
      .l2_enforce = config_.l2_enforce,
      .clos_budget = config_.clos_budget,
  };
  impl_ = std::make_unique<Impl>(sys_config);
  CmpSystem& system = impl_->system;

  const Instructions total_instructions =
      config_.interval_instructions * config_.num_intervals;
  const Instructions per_thread = total_instructions / config_.num_threads;

  // Per-thread op streams: caller-supplied sources, else resolved spool
  // replays when a spool directory is configured and the run is eligible
  // (bit-identical, but skips generation and private-hierarchy simulation),
  // else streamed resolves when the run is eligible (the same resolved ops,
  // generated on helper threads ahead of the driver), else live
  // deterministic generators whose ops the driver resolves through the
  // private caches itself.
  std::vector<std::unique_ptr<trace::OpSource>> generators =
      std::move(sources);
  if (generators.empty()) {
    generators = spool_sources(config_, per_thread);
    if (generators.empty()) {
      generators = streamed_sources(config_, profile, per_thread);
    }
  } else {
    CAPART_CHECK(generators.size() == config_.num_threads,
                 "prepared experiment: one op source per thread required");
  }
  if (generators.empty()) {
    const Rng root(config_.seed);
    generators.reserve(config_.num_threads);
    for (ThreadId t = 0; t < config_.num_threads; ++t) {
      generators.push_back(std::make_unique<trace::PhasedGenerator>(
          trace::PhaseSchedule(profile.threads[t].phases), root.fork(t),
          private_region_base(t), shared_region_base()));
    }
  }

  const std::uint32_t sections =
      config_.sections != 0 ? config_.sections : profile.sections;
  Program program = make_uniform_program(config_.num_threads, sections,
                                         per_thread);

  DriverConfig driver_config{
      .interval_instructions = config_.interval_instructions,
      .barrier_release_cost = config_.barrier_release_cost,
      .barrier_group = {},
      .obs = config_.obs,
      .cancel = config_.cancel,
      .fault = config_.fault,
  };
  impl_->driver = std::make_unique<Driver>(system, std::move(program),
                                           std::move(generators),
                                           driver_config);
  for (const MigrationEvent& m : config_.migrations) {
    impl_->driver->schedule_migration(m.interval, m.a, m.b);
  }

  std::unique_ptr<core::PartitionPolicy> policy;
  if (partitioner != nullptr) {
    policy = core::registry().make(config_.policy, config_.policy_options);
  }
  core::ClosRuntimeConfig clos_runtime;
  if (config_.l2_enforce == mem::L2Enforce::kClosWayMask) {
    clos_runtime.mapper = core::make_clos_mapper(config_.clos_mapper);
    clos_runtime.budget = config_.clos_budget;
    clos_runtime.mask_update_cycles = config_.clos_mask_update_cycles;
  }
  // Shared-region profile for the sharing-aware policies: each thread's
  // phase schedule, averaged with phase durations as weights (what fraction
  // of accesses hit the shared region, and how big that region is).
  std::vector<core::ThreadSharing> sharing;
  sharing.reserve(config_.num_threads);
  for (ThreadId t = 0; t < config_.num_threads; ++t) {
    double weight = 0.0;
    core::ThreadSharing s;
    for (const trace::Phase& phase : profile.threads[t].phases) {
      const auto d = static_cast<double>(phase.duration);
      s.share_fraction += phase.params.share_fraction * d;
      s.shared_region_blocks +=
          static_cast<double>(phase.params.shared_region_blocks) * d;
      weight += d;
    }
    if (weight > 0.0) {
      s.share_fraction /= weight;
      s.shared_region_blocks /= weight;
    }
    sharing.push_back(s);
  }
  impl_->runtime = std::make_unique<core::RuntimeSystem>(
      system, std::move(policy), config_.runtime_overhead_cycles,
      config_.reconfigure_flush_cost_per_line, config_.obs,
      std::move(clos_runtime), std::move(sharing));
  impl_->driver->set_interval_callback(impl_->runtime->callback());
  impl_->driver->begin();
  wall_accum_ += seconds_since(wall_start);
}

PreparedExperiment::~PreparedExperiment() = default;

bool PreparedExperiment::advance_interval() {
  const auto start = std::chrono::steady_clock::now();
  try {
    const bool more = impl_->driver->advance_interval();
    wall_accum_ += seconds_since(start);
    return more;
  } catch (...) {
    wall_accum_ += seconds_since(start);
    throw;
  }
}

ExperimentResult PreparedExperiment::finalize() {
  const auto start = std::chrono::steady_clock::now();
  CmpSystem& system = impl_->system;
  core::RuntimeSystem& runtime = *impl_->runtime;

  ExperimentResult result;
  result.outcome = impl_->driver->finalize();
  result.intervals = runtime.history();
  result.l2_stats = system.l2().stats();
  result.thread_totals.reserve(config_.num_threads);
  for (ThreadId t = 0; t < config_.num_threads; ++t) {
    result.thread_totals.push_back(system.counters().thread(t));
  }

  if (const auto* model_policy =
          dynamic_cast<const core::ModelBasedPolicy*>(runtime.policy())) {
    ModelSnapshot snapshot;
    const std::uint32_t total_ways = system.l2().total_ways();
    snapshot.predicted.resize(config_.num_threads);
    snapshot.observed.resize(config_.num_threads);
    for (ThreadId t = 0; t < config_.num_threads; ++t) {
      snapshot.predicted[t].reserve(total_ways);
      for (std::uint32_t w = 1; w <= total_ways; ++w) {
        snapshot.predicted[t].push_back(model_policy->predict(t, w));
      }
      for (const auto& [ways, cpi] : model_policy->models().points(t)) {
        snapshot.observed[t].emplace_back(ways, cpi);
      }
    }
    snapshot.final_allocation = system.l2().current_targets();
    result.model_snapshot = std::move(snapshot);
  }

  result.wall_seconds = wall_accum_ + seconds_since(start);
  wall_accum_ = result.wall_seconds;
  if (config_.obs.sink != nullptr) {
    config_.obs.sink->on_run_end({config_.obs.run_name,
                                 result.outcome.total_cycles,
                                 result.outcome.intervals_completed,
                                 result.outcome.instructions_retired,
                                 result.wall_seconds});
    config_.obs.sink->flush();
  }
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->add("experiment/runs");
    config_.obs.metrics->add("experiment/cycles_simulated",
                            result.outcome.total_cycles);
    config_.obs.metrics->add("experiment/instructions_simulated",
                            result.outcome.instructions_retired);
    // Hot-path telemetry: L2 tag-lookup cost (index slots or scanned
    // ways, per use_block_index), and simulated L2 accesses per wall
    // second (the unit capart_bench reports).
    const mem::CacheCore::LookupStats lookup = system.l2().lookup_stats();
    config_.obs.metrics->add("l2/lookups", lookup.lookups);
    config_.obs.metrics->add("l2/lookup_probe_len_total", lookup.probed_slots);
    config_.obs.metrics->add("l2/lookup_probe_len_1",
                            lookup.probe_len_hist[0]);
    config_.obs.metrics->add("l2/lookup_probe_len_2",
                            lookup.probe_len_hist[1]);
    config_.obs.metrics->add("l2/lookup_probe_len_3_4",
                            lookup.probe_len_hist[2]);
    config_.obs.metrics->add("l2/lookup_probe_len_5_8",
                            lookup.probe_len_hist[3]);
    config_.obs.metrics->add("l2/lookup_probe_len_gt_8",
                            lookup.probe_len_hist[4]);
    // Banked-L2 queueing: how often accesses collided on a busy bank and
    // what the collisions cost, plus the load skew across banks.
    const std::span<const BankContention> banks = system.bank_contention();
    if (!banks.empty()) {
      std::uint64_t accesses = 0;
      std::uint64_t conflicts = 0;
      std::uint64_t max_accesses = 0;
      Cycles wait = 0;
      for (const BankContention& b : banks) {
        accesses += b.accesses;
        conflicts += b.conflicts;
        wait += b.wait_cycles;
        max_accesses = std::max(max_accesses, b.accesses);
      }
      config_.obs.metrics->add("l2/bank_accesses", accesses);
      config_.obs.metrics->add("l2/bank_conflicts", conflicts);
      config_.obs.metrics->add("l2/bank_conflict_wait_cycles", wait);
      if (accesses > 0) {
        // 1.0 = perfectly balanced; N = everything on one of N banks.
        config_.obs.metrics->set_gauge(
            "l2/bank_imbalance",
            static_cast<double>(max_accesses) *
                static_cast<double>(banks.size()) /
                static_cast<double>(accesses));
      }
    }
    if (result.wall_seconds > 0.0) {
      config_.obs.metrics->set_gauge(
          "sim/accesses_per_sec",
          static_cast<double>(result.l2_stats.total().accesses) /
              result.wall_seconds);
    }
  }

  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  PreparedExperiment prepared(config);
  while (prepared.advance_interval()) {
  }
  return prepared.finalize();
}

double improvement(const ExperimentResult& ours,
                   const ExperimentResult& baseline) noexcept {
  const double base = static_cast<double>(baseline.outcome.total_cycles);
  if (base == 0.0) return 0.0;
  return (base - static_cast<double>(ours.outcome.total_cycles)) / base;
}

}  // namespace capart::sim
