// End-to-end experiment runner: builds the CMP, the workload generators, the
// program, an optional runtime system, runs to completion and collects
// everything the evaluation figures need. This is the top-level convenience
// API; benches, examples and integration tests all go through it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/common/types.hpp"
#include "src/core/clos_mapper.hpp"
#include "src/core/policy.hpp"
#include "src/cpu/perf_counters.hpp"
#include "src/cpu/timing_model.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/driver.hpp"
#include "src/sim/interval.hpp"

namespace capart::sim {

class FaultInjector;

/// A migration event for the resilience ablation: at interval boundary
/// `interval`, threads `a` and `b` swap cores (and therefore L1s).
struct MigrationEvent {
  std::uint64_t interval = 0;
  ThreadId a = 0;
  ThreadId b = 1;
};

struct ExperimentConfig {
  /// Workload profile name (see trace::benchmark_names()).
  std::string profile = "cg";
  ThreadId num_threads = 4;

  mem::L2Mode l2_mode = mem::L2Mode::kPartitionedShared;
  /// Partitioning policy name, resolved through core::registry() (canonical
  /// names or their aliases); "none" runs a pure monitor (baselines and
  /// motivation figures).
  std::string policy = "model-based";
  core::PolicyOptions policy_options{};

  /// Aggregate retired instructions per execution interval (all threads).
  Instructions interval_instructions = 240'000;
  /// Run length in intervals; total work is split evenly across threads.
  std::uint32_t num_intervals = 40;
  /// Parallel sections per run; 0 uses the profile's default.
  std::uint32_t sections = 0;

  mem::CacheGeometry l1 = mem::kDefaultL1;
  mem::CacheGeometry l2 = mem::kDefaultL2;
  cpu::TimingParams timing{};

  /// Banks of the shared cache (0 = monolithic with infinite bandwidth, the
  /// default, matching the paper's setup). A power-of-two count N slices the
  /// shared structure into N address-interleaved banks (contents stay
  /// bit-identical; see mem::BankedL2) and enables the bank-contention
  /// timing model.
  std::uint32_t l2_banks = 0;
  Cycles l2_bank_service_cycles = 4;

  /// Partition enforcement of the shared L2. kClosWayMask = CAT-style CLOS
  /// way masks (commodity-hardware semantics): policies keep emitting
  /// per-thread targets in a virtual way space, a ClosMapper clusters the
  /// threads onto `clos_budget` classes, and only the masks are enforced —
  /// the organization that supports threads > ways.
  mem::L2Enforce l2_enforce = mem::L2Enforce::kModeDefault;
  std::uint32_t clos_budget = 8;
  core::ClosMapperKind clos_mapper = core::ClosMapperKind::kNearest;
  /// Cycles charged per CLOS mask actually rewritten at a repartition (the
  /// MSR write + its serializing cost on real hardware).
  Cycles clos_mask_update_cycles = 250;

  /// Three-level mode: private per-core L2s in front of the shared cache
  /// (which then plays the L3; paper footnote 1). The partitioning runtime
  /// is unchanged — it targets whatever the shared component is.
  bool enable_private_l2 = false;
  mem::CacheGeometry private_l2 = mem::kDefaultPrivateL2;

  /// Cycles charged to every thread per dynamic repartition (runtime cost).
  /// Scaled to ~1 % of a default interval, matching the paper's < 1.5 %
  /// measured overhead.
  Cycles runtime_overhead_cycles = 800;
  /// Reconfiguration stall per line a flush-reconfiguring L2 discarded on
  /// retarget (only relevant with L2Mode::kFlushReconfigureShared).
  Cycles reconfigure_flush_cost_per_line = 4;
  Cycles barrier_release_cost = 100;

  std::uint64_t seed = 42;

  /// Directory for resolved-trace spool files (see sim/trace_spool.hpp);
  /// empty disables spooling and runs live generators, resolved on helper
  /// threads as the run goes (sim/streamed_resolve.hpp). Arms sharing a
  /// workload profile amortize one generation+resolve pass through this
  /// cache; results are bit-identical with or without it. An
  /// execution-resource knob like BatchRunner jobs: it is excluded from
  /// obs manifests and serve spec codecs (it is not part of experiment
  /// identity).
  std::string trace_spool_dir;

  /// Size cap for the spool directory (--trace-dir-max-bytes): after each
  /// spool acquisition the directory is shrunk to at most this many bytes of
  /// spool files, evicting least-recently-used entries (acquires refresh
  /// recency). 0 = unbounded. Execution-resource knob like trace_spool_dir —
  /// an evicted entry just regenerates on its next miss.
  std::uint64_t trace_spool_max_bytes = 0;

  std::vector<MigrationEvent> migrations;

  /// Observability attachment (src/obs): when a sink or metrics registry is
  /// set, the run publishes a manifest, per-interval records, repartition
  /// decisions, barrier stalls, migrations and a run-end event. Null by
  /// default — a disabled run takes the single-branch fast path everywhere.
  obs::ObsConfig obs;

  /// Cooperative cancellation (non-owning): polled by the driver at every
  /// interval boundary; a fired token stops the run with CancelledError.
  /// The BatchRunner injects one per arm to enforce deadlines and fail-fast.
  const CancelToken* cancel = nullptr;

  /// Test-only fault-injection hook (non-owning; see sim/fault_injector.hpp).
  FaultInjector* fault = nullptr;

  /// Rejects configurations the simulator cannot run — unknown policy names
  /// or out-of-range policy options, bad interval parameters, impossible
  /// cache geometry, way-partitioned modes with more threads than ways —
  /// with ConfigError naming the offending field. run_experiment calls it
  /// first; the BatchRunner contains the throw as a failed arm. The profile
  /// name is validated later, in trace setup.
  void validate() const;
};

/// Fig 15 material: the fitted runtime CPI models at the end of a
/// model-based run.
struct ModelSnapshot {
  /// predicted[t][w-1] = model CPI of thread t at w ways (w = 1..total).
  std::vector<std::vector<double>> predicted;
  /// Observed (ways -> smoothed CPI) points per thread.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> observed;
  /// Way allocation in force when the run ended.
  std::vector<std::uint32_t> final_allocation;
};

struct ExperimentResult {
  RunOutcome outcome;
  std::vector<IntervalRecord> intervals;
  mem::CacheStats l2_stats{1};
  std::vector<cpu::CounterBlock> thread_totals;
  std::optional<ModelSnapshot> model_snapshot;
  /// Wall-clock of this run (also published as the run_end event).
  double wall_seconds = 0.0;

  /// The paper's performance metric: inverse of execution time.
  double performance() const noexcept {
    return outcome.total_cycles == 0
               ? 0.0
               : 1.0 / static_cast<double>(outcome.total_cycles);
  }
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// run_experiment decomposed into prepare / advance / collect, so a caller
/// can observe a run between intervals (capart_bench times each phase and
/// every interval) or hand it its own op sources. run_experiment(config) is
/// exactly `PreparedExperiment p(config); while (p.advance_interval()) {}
/// return p.finalize();` — results are bit-identical however the advances
/// are interleaved with other work, because every run owns its system,
/// sources and RNG streams.
///
/// Wall-clock accounting: each phase (construction, every advance slice,
/// finalize) accumulates into the run's wall_seconds, so time the caller
/// spends between advances is not charged to the run.
class PreparedExperiment {
 public:
  /// Everything before the first simulation step: validation, manifest
  /// publication, system construction, op sources, program, driver and
  /// runtime attachment. Non-empty `sources` (one per thread) override the
  /// config's own op-source construction — tests and capart_bench pass
  /// live generators, which the driver resolves through the private caches
  /// itself. Without them a run replays its spool, else streams resolved
  /// ops (sim/streamed_resolve.hpp), else (on migration runs) simulates its
  /// private caches from live generators. Throws what run_experiment's
  /// setup throws (ConfigError and friends).
  explicit PreparedExperiment(
      const ExperimentConfig& config,
      std::vector<std::unique_ptr<trace::OpSource>> sources = {});
  ~PreparedExperiment();
  PreparedExperiment(const PreparedExperiment&) = delete;
  PreparedExperiment& operator=(const PreparedExperiment&) = delete;

  /// Runs to the next interval boundary; false when the program finished.
  /// Propagates CancelledError from the boundary's cancellation poll — the
  /// arm is then abandoned (destructible, but not resumable).
  bool advance_interval();

  /// Collects the result (call once, after advance_interval() returned
  /// false); publishes run-end events and hot-path metrics.
  ExperimentResult finalize();

  const ExperimentConfig& config() const noexcept { return config_; }

 private:
  struct Impl;
  ExperimentConfig config_;
  double wall_accum_ = 0.0;
  std::unique_ptr<Impl> impl_;
};

/// Relative improvement of `ours` over `baseline` in execution time:
/// (cycles_baseline - cycles_ours) / cycles_baseline. Positive = faster.
double improvement(const ExperimentResult& ours,
                   const ExperimentResult& baseline) noexcept;

/// Private-region base address of thread `t` and the application-wide shared
/// region base; exposed so custom workloads compose with profile threads.
Addr private_region_base(ThreadId t) noexcept;
Addr shared_region_base() noexcept;

}  // namespace capart::sim
