// Shared command-line handling, experiment-arm registry and batch helpers
// for the bench binaries. Every figure/table bench accepts:
//   --intervals=N           execution intervals per run (default 40)
//   --interval-instr=N      aggregate instructions per interval
//                           (default 60'000 x threads)
//   --threads=N             cores/threads (default 4; fig22 uses 8)
//   --profile=NAME[,..]     restrict the bench to these workload profiles
//                           (default: the bench's own list)
//   --seed=N                workload seed (default 42)
//   --l2-banks=N            banked shared L2 (power of two; 0 = monolithic
//                           with infinite bandwidth; contents bit-identical)
//   --l2-enforce=NAME       partition enforcement: default eviction-control
//                           clos (clos = CAT-style way masks; supports
//                           threads > ways)
//   --clos-budget=N         CLOS classes under --l2-enforce=clos (default 8)
//   --clos-mapper=NAME      thread->CLOS clustering: none nearest minmax
//                           lfoc (default nearest)
//   --jobs=N                concurrent experiments (default: all cores)
//   --trace-dir=DIR         resolved-trace spool directory (empty = off);
//                           arms sharing a profile amortize one
//                           generate+resolve pass; bit-identical
//   --trace-dir-max-bytes=N LRU size cap for the spool directory (0 = none)
//   --arm-retries=N         re-run a failed arm up to N times (default 0)
//   --arm-deadline=SEC      per-arm wall-clock budget; expired arms stop at
//                           the next interval boundary as timed_out
//   --events-out=PATH       JSONL run telemetry for every arm (src/obs),
//                           one shared file tagged by "profile/arm"
//   --trace-out=STEM        Chrome-trace timeline per arm
//                           (STEM.<profile>.<arm>.json; open in Perfetto)
//   --csv=STEM              per-interval CSV per arm
//                           (STEM.<profile>.<arm>.csv)
// Defaults are the scaled-down configuration documented in EXPERIMENTS.md:
// the paper used 15 M-instruction intervals on a full-system simulator; the
// dynamics are interval-count-, not interval-length-, driven (paper §VII and
// the abl_interval_length bench).
//
// Benches declare their runs as a sim::ExperimentSpec (usually via
// profile_sweep) and execute them through run_spec, which fans the arms out
// over a BatchRunner and prints the timing footer. Results come back in spec
// order and are addressed by "profile/arm" keys; they are bit-identical for
// any --jobs value.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/clos_mapper.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/replacement.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/experiment.hpp"

namespace capart::bench {

struct BenchOptions {
  std::uint32_t intervals = 40;
  Instructions interval_instructions = 0;  // 0 -> 60'000 x threads
  ThreadId threads = 4;
  /// Workload subset (--profile=NAME[,..]); empty = the bench's own default
  /// profile list. Lets CI smoke a sweep on one profile.
  std::vector<std::string> profiles;
  std::uint64_t seed = 42;
  unsigned jobs = 0;  // 0 -> sim::default_jobs()
  /// Resolved-trace spool directory (--trace-dir=DIR; empty = off). See
  /// sim/trace_spool.hpp — arms sharing a workload profile pay for one
  /// generation+resolve pass; results are bit-identical either way.
  std::string trace_dir;
  /// Spool-directory size cap in bytes (--trace-dir-max-bytes=N; 0 = none):
  /// LRU eviction after every spool acquisition. Needs --trace-dir.
  std::uint64_t trace_dir_max_bytes = 0;
  /// Fault-isolation policy of the batch (--arm-retries / --arm-deadline):
  /// re-runs per failed arm, and the per-arm wall-clock budget in seconds
  /// (0 = none). See sim::BatchPolicy.
  std::uint32_t arm_retries = 0;
  double arm_deadline = 0.0;
  /// Shared-L2 replacement policy (--l2-repl=lru|plru|srrip). True LRU is
  /// the paper-faithful default; abl_replacement sweeps the others.
  mem::ReplacementKind l2_repl = mem::ReplacementKind::kTrueLru;
  /// Banked shared L2 (--l2-banks=N, power of two; 0 = monolithic with
  /// infinite bandwidth). Contents stay bit-identical; banks drive the
  /// contention model and per-bank stats.
  std::uint32_t l2_banks = 0;
  /// Partition enforcement (--l2-enforce=default|eviction-control|clos) plus
  /// the CLOS knobs (--clos-budget=N, --clos-mapper=none|nearest|minmax).
  /// clos is the organization that supports threads > ways.
  mem::L2Enforce l2_enforce = mem::L2Enforce::kModeDefault;
  std::uint32_t clos_budget = 8;
  core::ClosMapperKind clos_mapper = core::ClosMapperKind::kNearest;
  /// Observability outputs (empty = off); see the header comment.
  std::string events_out;
  std::string trace_out;
  std::string csv_out;
};

/// Parses --key=value flags; unknown flags abort with a usage message.
BenchOptions parse_options(int argc, char** argv);

/// The interval-instruction count a run actually uses: the explicit flag
/// value, or the 60'000-per-thread fallback.
Instructions resolved_interval_instructions(const BenchOptions& opt) noexcept;

/// The executor width run_spec uses: --jobs, or every hardware thread.
unsigned resolved_jobs(const BenchOptions& opt) noexcept;

/// Baseline experiment configuration for one application profile.
sim::ExperimentConfig base_config(const BenchOptions& opt,
                                  const std::string& profile);

/// An arm maps a base configuration to one point of the design space
/// (cache organization + policy); arms are registered by name so specs can
/// compose them declaratively.
using ArmTransform =
    std::function<sim::ExperimentConfig(sim::ExperimentConfig)>;

struct ArmEntry {
  std::string name;
  ArmTransform transform;
};

/// Bench spelling of a registry partitioner: the historical short arm names
/// scripts and CI file names depend on — the first alias when one exists,
/// with the two legacy underscore spellings pinned.
std::string bench_arm_name(const core::Partitioner& p);

/// Every registered arm: the cache-organization arms plus one generated arm
/// per partitioner in core::registry() (under the short bench spellings —
/// static_equal, model, cpi, ... — so scripts and CI file names stay
/// stable). New registry policies appear here automatically.
const std::vector<ArmEntry>& arm_registry();

/// Looks up a registered arm; aborts listing the known names on a miss.
ArmTransform find_arm(std::string_view arm);

/// Applies registered arm `arm` to `cfg`.
sim::ExperimentConfig make_arm(std::string_view arm,
                               sim::ExperimentConfig cfg);

/// Spec key of profile `profile` under arm `arm`: "profile/arm".
std::string arm_key(std::string_view profile, std::string_view arm);

/// The cross product profiles x arms as a spec with "profile/arm" keys —
/// the shape every figure sweep runs.
sim::ExperimentSpec profile_sweep(const BenchOptions& opt,
                                  const std::vector<std::string>& profiles,
                                  const std::vector<std::string>& arms,
                                  std::string spec_name = "");

/// Runs `spec` on a BatchRunner with resolved_jobs(opt) and prints the
/// timing footer (wall, serial-equivalent, speedup, slowest arms). When the
/// observability flags are set, every arm publishes into a shared JSONL sink
/// (tagged with its arm name) and per-arm Chrome traces / interval CSVs are
/// written after the batch.
sim::BatchResult run_spec(const sim::ExperimentSpec& spec,
                          const BenchOptions& opt);

/// Process exit status for bench mains: 1 once any run_spec batch in this
/// process finished with failed or timed-out arms, 0 otherwise. Failed arms
/// never abort the batch — siblings complete and artifacts are written — but
/// the process must still signal the loss to scripts and CI.
int exit_status() noexcept;

/// The experiment arms the paper and the ablations compare. Registered
/// under the names in parentheses.
sim::ExperimentConfig shared_arm(sim::ExperimentConfig cfg);       // shared
sim::ExperimentConfig private_arm(sim::ExperimentConfig cfg);      // private
sim::ExperimentConfig static_equal_arm(sim::ExperimentConfig cfg);  // static_equal
sim::ExperimentConfig model_arm(sim::ExperimentConfig cfg);        // model
sim::ExperimentConfig cpi_arm(sim::ExperimentConfig cfg);          // cpi
sim::ExperimentConfig throughput_arm(sim::ExperimentConfig cfg);   // throughput
sim::ExperimentConfig time_shared_arm(sim::ExperimentConfig cfg);  // time_shared
sim::ExperimentConfig umon_arm(sim::ExperimentConfig cfg);         // umon
sim::ExperimentConfig fair_arm(sim::ExperimentConfig cfg);         // fair
sim::ExperimentConfig ucp_arm(sim::ExperimentConfig cfg);          // ucp
sim::ExperimentConfig lfoc_arm(sim::ExperimentConfig cfg);         // lfoc
sim::ExperimentConfig reuse_arm(sim::ExperimentConfig cfg);        // reuse
sim::ExperimentConfig coloring_arm(sim::ExperimentConfig cfg);     // coloring
sim::ExperimentConfig flush_arm(sim::ExperimentConfig cfg);        // flush
sim::ExperimentConfig linear_model_arm(sim::ExperimentConfig cfg);  // linear_model

/// Prints the standard bench banner.
void banner(const std::string& what, const BenchOptions& opt);

}  // namespace capart::bench
