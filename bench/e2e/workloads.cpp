// The four frozen workloads. Every list here is literal on purpose: editing
// the benches' arm registry or registering a new partitioner must never
// change what a workload runs, so nothing is enumerated from
// core::registry() or bench_common. Only ExperimentConfig fields that define
// the modelled system are set; execution knobs (tag index, lockstep,
// intra-experiment jobs, scheduler, SIMD) keep the defaults users get.
#include <algorithm>
#include <array>
#include <thread>

#include "bench.hpp"
#include "src/common/error.hpp"

namespace capart::e2e {
namespace {

/// Three of the nine profiles, at the sweeps' full length. Of every two- and
/// three-profile subset, traced live runs at 40 intervals put this one
/// closest to all nine at 40 intervals: generation, private-L1, shared
/// replay, enforcement and runtime shares of the wall each within 0.3
/// points, shared-L2 miss ratio within 3 %, host ns per access within 1 %.
/// The alternative, all nine profiles at 6 intervals, kept the host-time
/// shares within 1.6 points but simulated a still-warming cache (miss ratio
/// 0.233 against 0.191) and 5 repartitions per arm instead of 39.
constexpr std::array<const char*, 3> kProfiles = {"cg", "bt", "applu"};

/// One arm of a workload: the shared-L2 organization and the policy name.
struct ArmKind {
  const char* name;
  mem::L2Mode mode;
  const char* policy;
};

constexpr mem::L2Mode kPartitioned = mem::L2Mode::kPartitionedShared;

/// Figures 19-21: the paper's model-based scheme against its baselines.
constexpr std::array<ArmKind, 4> kFig19to21Arms = {{
    {"model", kPartitioned, "model-based"},
    {"static_equal", kPartitioned, "static-equal"},
    {"shared", mem::L2Mode::kSharedUnpartitioned, "none"},
    {"throughput", kPartitioned, "throughput-oriented"},
}};

/// Unpartitioned shared LRU plus the ten partitioners registered when the
/// benchmark was defined. Three of them (lfoc, ucp, umon) provision UMON
/// shadow tags.
constexpr std::array<ArmKind, 11> kZooArms = {{
    {"shared", mem::L2Mode::kSharedUnpartitioned, "none"},
    {"cpi", kPartitioned, "cpi-proportional"},
    {"fair", kPartitioned, "fair-slowdown"},
    {"lfoc", kPartitioned, "lfoc-classing"},
    {"model", kPartitioned, "model-based"},
    {"reuse", kPartitioned, "reuse-aware"},
    {"static_equal", kPartitioned, "static-equal"},
    {"throughput", kPartitioned, "throughput-oriented"},
    {"time_shared", kPartitioned, "time-shared"},
    {"ucp", kPartitioned, "ucp-lookahead"},
    {"umon", kPartitioned, "umon-critical-path"},
}};

/// cg alone: of cg, mgrid and equake it is the closest to their union at
/// this length (Minstr/s within 1 %, accesses/s within 5 %), and the union
/// would keep half a GB of spool mapped.
constexpr std::array<const char*, 1> kClosProfiles = {"cg"};
constexpr std::array<ArmKind, 2> kClosArms = {{
    {"model", kPartitioned, "model-based"},
    {"umon", kPartitioned, "umon-critical-path"},
}};

/// Every workload runs the benches' default interval of 60 k instructions
/// per thread. The 4-thread workloads run the sweeps' 40 intervals;
/// clos_32t runs 20, as the CLOS setting it follows does.
struct Length {
  std::uint32_t intervals;
  Instructions per_thread_interval;
};

Length length_of(std::string_view workload, Scale scale) {
  Length length{workload == "clos_32t" ? 20u : 40u, 60'000};
  if (scale == Scale::kSmoke) length.intervals = 4;
  return length;
}

sim::ExperimentConfig base_config(const char* profile, ThreadId threads,
                                  Length length, std::uint64_t seed) {
  sim::ExperimentConfig cfg;
  cfg.profile = profile;
  cfg.num_threads = threads;
  cfg.num_intervals = length.intervals;
  cfg.interval_instructions = length.per_thread_interval * threads;
  cfg.sections = 0;
  cfg.seed = seed;
  cfg.l1.sets = 32;
  cfg.l1.ways = 4;
  cfg.l1.line_bytes = 64;
  cfg.l1.repl = mem::ReplacementKind::kTrueLru;
  cfg.l2.sets = 256;
  cfg.l2.ways = 64;
  cfg.l2.line_bytes = 64;
  cfg.l2.repl = mem::ReplacementKind::kTrueLru;
  cfg.l2_banks = 0;
  cfg.l2_enforce = mem::L2Enforce::kModeDefault;
  cfg.enable_private_l2 = false;
  return cfg;
}

template <std::size_t P, std::size_t A>
void add_arms(Workload& w, const std::array<const char*, P>& profiles,
              const std::array<ArmKind, A>& arms,
              const sim::ExperimentConfig& shape) {
  for (const char* profile : profiles) {
    sim::ExperimentConfig base = shape;
    base.profile = std::string(profile);
    w.profiles.push_back(base);
    for (const ArmKind& arm : arms) {
      sim::ExperimentConfig cfg = base;
      cfg.l2_mode = arm.mode;
      cfg.policy = arm.policy;
      w.arms.push_back({std::string(profile) + "/" + arm.name, cfg});
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig19_21_live", "fig19_21_spool", "zoo_parallel", "clos_32t"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed,
                       Scale scale) {
  Workload w;
  w.name = std::string(name);
  const Length length = length_of(name, scale);
  if (name == "fig19_21_live" || name == "fig19_21_spool") {
    w.digest_set = "fig19_21";
    w.spooled = name == "fig19_21_spool";
    w.sweep_seconds = w.spooled ? 1.4 : 5.8;
    add_arms(w, kProfiles, kFig19to21Arms,
             base_config("", 4, length, seed));
  } else if (name == "zoo_parallel") {
    w.digest_set = "zoo_parallel";
    w.spooled = true;
    w.batch = true;
    w.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    w.sweep_seconds = 1.1;
    add_arms(w, kProfiles, kZooArms, base_config("", 4, length, seed));
  } else if (name == "clos_32t") {
    w.digest_set = "clos_32t";
    w.spooled = true;
    w.sweep_seconds = 2.6;
    // CAT-style enforcement: 32 threads share 8 CLOS way masks on an
    // 8-bank L2. 32 rather than 64 threads: at threads >= ways every thread
    // gets exactly one virtual way and the policies have nothing to decide.
    sim::ExperimentConfig shape = base_config("", 32, length, seed);
    shape.l2_banks = 8;
    shape.l2_enforce = mem::L2Enforce::kClosWayMask;
    shape.clos_budget = 8;
    shape.clos_mapper = core::ClosMapperKind::kNearest;
    add_arms(w, kClosProfiles, kClosArms, shape);
  } else {
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    throw ConfigError("workload", "unknown workload '" + std::string(name) +
                                      "'; known:" + known);
  }
  return w;
}

void set_spool_dir(Workload& workload, const std::string& dir) {
  for (sim::ExperimentArm& arm : workload.arms) {
    arm.config.trace_spool_dir = dir;
  }
  for (sim::ExperimentConfig& cfg : workload.profiles) {
    cfg.trace_spool_dir = dir;
  }
}

Instructions per_thread_work(const sim::ExperimentConfig& config) {
  return config.interval_instructions * config.num_intervals /
         config.num_threads;
}

}  // namespace capart::e2e
