// Per-layer side measurements of a traced run: each times one layer on its
// own through the library's public functions, on the workload's own
// configurations and resolved streams.
//
//   ladder (fig19_21_live): the live sweep decomposed into cumulative
//     stages — generate, private resolve, shared replay, enforcement,
//     runtime — whose sum must come close to the live wall;
//   spool: generation-only passes over the resolved op counts, so the
//     resolve cost splits into generation and private-hierarchy simulation;
//   mem: the spools' shared-level ops replayed through mem::make_l2 and
//     mem::UtilityMonitor directly;
//   core: each arm's recorded intervals replayed into a fresh policy.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <span>

#include "bench.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/utility_monitor.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/phase.hpp"
#include "src/trace/trace_io.hpp"

namespace capart::e2e {
namespace {

/// Ops taken from each profile's spool for the mem micro-replays.
constexpr std::size_t kMicroOpsPerProfile = 1u << 18;

struct Spool {
  std::vector<std::shared_ptr<trace::MmapTraceFile>> threads;
  std::uint64_t records = 0;
};

/// The resolved streams of `cfg` (whose trace_spool_dir must hold them).
Spool open_spool(const sim::ExperimentConfig& cfg) {
  Spool spool;
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    const std::string key = sim::spool_key(cfg, per_thread_work(cfg), t);
    std::shared_ptr<trace::MmapTraceFile> file = trace::MmapTraceFile::open(
        sim::spool_path(cfg.trace_spool_dir, key), key);
    if (file == nullptr) throw Error("spool entry missing for " + key);
    spool.records += file->ops().size();
    spool.threads.push_back(std::move(file));
  }
  return spool;
}

/// Seconds to generate, live, as many ops per thread as the spool holds.
double generate_seconds(const sim::ExperimentConfig& cfg, const Spool& spool) {
  const trace::BenchmarkProfile profile =
      trace::make_profile(cfg.profile, cfg.num_threads);
  const Rng root(cfg.seed);
  std::vector<trace::NextOp> buffer(256);
  double seconds = 0.0;
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    trace::PhasedGenerator gen(trace::PhaseSchedule(profile.threads[t].phases),
                               root.fork(t), sim::private_region_base(t),
                               sim::shared_region_base());
    const Clock::time_point start = Clock::now();
    for (std::size_t left = spool.threads[t]->ops().size(); left > 0;) {
      left -= gen.fill(buffer.data(), std::min(left, buffer.size()));
    }
    seconds += seconds_since(start);
  }
  return seconds;
}

/// Seconds to simulate each thread's private L1 over its resolved stream —
/// the private-hierarchy work a live arm does, without the spool's packing
/// and file writes.
double private_seconds(const sim::ExperimentConfig& cfg, const Spool& spool) {
  double seconds = 0.0;
  for (const std::shared_ptr<trace::MmapTraceFile>& file : spool.threads) {
    const std::unique_ptr<mem::L2Organization> l1 =
        mem::make_l2(mem::L2Mode::kSharedUnpartitioned, cfg.l1, 1);
    const Clock::time_point start = Clock::now();
    for (const trace::PackedOp& packed : file->ops()) {
      const trace::NextOp op = trace::unpack_op(packed);
      if (op.resolved != trace::ResolvedLevel::kUnresolved) {
        l1->access(0, op.addr, op.type);
      }
    }
    seconds += seconds_since(start);
  }
  return seconds;
}

struct SharedOp {
  ThreadId thread;
  Addr addr;
  AccessType type;
};

/// Up to `cap` shared-level ops of `spool`, one per thread in turn.
std::vector<SharedOp> shared_ops(const Spool& spool, std::size_t cap) {
  std::vector<SharedOp> ops;
  std::vector<std::size_t> pos(spool.threads.size(), 0);
  for (bool progress = true; progress && ops.size() < cap;) {
    progress = false;
    for (std::size_t t = 0; t < spool.threads.size() && ops.size() < cap;
         ++t) {
      const std::span<const trace::PackedOp> recs = spool.threads[t]->ops();
      while (pos[t] < recs.size()) {
        const trace::NextOp op = trace::unpack_op(recs[pos[t]++]);
        if (op.resolved == trace::ResolvedLevel::kShared) {
          ops.push_back({static_cast<ThreadId>(t), op.addr, op.type});
          progress = true;
          break;
        }
      }
    }
  }
  return ops;
}

struct MicroTotals {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t hits = 0;
  mem::CacheCore::LookupStats lookups;
};

void replay_l2(mem::L2Organization& l2, const std::vector<SharedOp>& ops,
               MicroTotals& totals) {
  const Clock::time_point start = Clock::now();
  std::uint64_t hits = 0;
  for (const SharedOp& op : ops) hits += l2.access(op.thread, op.addr, op.type);
  totals.seconds += seconds_since(start);
  totals.ops += ops.size();
  totals.hits += hits;
  totals.lookups += l2.lookup_stats();
}

/// Instruction-weighted sharing summary of each thread's phases, as the
/// experiment hands it to the sharing-aware policies.
std::vector<core::ThreadSharing> sharing_of(const sim::ExperimentConfig& cfg) {
  const trace::BenchmarkProfile profile =
      trace::make_profile(cfg.profile, cfg.num_threads);
  std::vector<core::ThreadSharing> sharing;
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
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
  return sharing;
}

std::string arm_kind(const std::string& arm) {
  return arm.substr(arm.find('/') + 1);
}

struct Replay {
  double seconds = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
};

/// One run of `cfg` (live, or replayed when it names a spool directory),
/// whole lifetime timed.
Replay replay_arm(const sim::ExperimentConfig& cfg) {
  const Clock::time_point start = Clock::now();
  const sim::ExperimentResult result = sim::run_experiment(cfg);
  Replay r;
  r.seconds = seconds_since(start);
  r.accesses = result.l2_stats.total().accesses;
  r.hits = result.l2_stats.total().hits;
  return r;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// The fig19_21 live sweep split into cumulative stages (ns per shared
/// access of the sweep). Every arm of the live sweep generates its
/// profile's streams, simulates the private L1s and replays the shared
/// level through the shared cache; the partitioned arms add enforcement;
/// the model and throughput arms add their runtime over static_equal. UMON
/// and obs are in no fig19_21 arm, so they are reported per access of an
/// arm that enables them and stay out of the sum. Each profile's live arms
/// are timed again right before its stages, so the residual compares
/// single runs made under the same host conditions.
void ladder(const LayerInputs& in, const std::string& dir, SpanLog& spans,
            std::map<std::string, double>& m) {
  const Workload& w = *in.workload;
  double sweep_accesses = 0.0;
  for (const sim::ExperimentResult& r : *in.results) {
    sweep_accesses += static_cast<double>(r.l2_stats.total().accesses);
  }
  const auto profiles = static_cast<double>(w.profiles.size());
  const double arms_per_profile = static_cast<double>(w.arms.size()) / profiles;
  const double partitioned_per_profile =
      static_cast<double>(std::count_if(
          w.arms.begin(), w.arms.end(),
          [](const sim::ExperimentArm& a) {
            return a.config.l2_mode == mem::L2Mode::kPartitionedShared;
          })) /
      profiles;
  double live = 0.0;
  double gen = 0.0;
  double priv = 0.0;
  std::map<std::string, Replay> replays;  // summed over profiles, by kind
  for (const sim::ExperimentConfig& base : w.profiles) {
    sim::ExperimentConfig profile = base;
    profile.trace_spool_dir = dir;
    const SpanLog::Scope span = spans.scope("ladder", profile.profile);
    for (const sim::ExperimentArm& arm : w.arms) {
      if (arm.config.profile != profile.profile) continue;
      const SpanLog::Scope stage = spans.scope("ladder.live", arm.name);
      live += replay_arm(arm.config).seconds;
    }
    {
      const SpanLog::Scope stage = spans.scope("ladder.spool", profile.profile);
      (void)sim::spool_sources(profile, per_thread_work(profile));
    }
    const Spool spool = open_spool(profile);
    {
      const SpanLog::Scope stage = spans.scope("ladder.generate", profile.profile);
      gen += generate_seconds(profile, spool);
    }
    {
      const SpanLog::Scope stage = spans.scope("ladder.private", profile.profile);
      priv += private_seconds(profile, spool);
    }
    for (const sim::ExperimentArm& arm : w.arms) {
      if (arm.config.profile != profile.profile) continue;
      sim::ExperimentConfig cfg = arm.config;
      cfg.trace_spool_dir = dir;
      const std::string kind = arm_kind(arm.name);
      std::vector<std::pair<std::string, sim::ExperimentConfig>> runs = {
          {kind, cfg}};
      if (kind == "static_equal") {
        sim::ExperimentConfig umon = cfg;
        umon.policy = "umon-critical-path";
        runs.emplace_back("umon", umon);
      }
      for (auto& [name, run] : runs) {
        const SpanLog::Scope stage =
            spans.scope("ladder.replay." + name, arm.name);
        const Replay r = replay_arm(run);
        Replay& sum = replays[name];
        sum.seconds += r.seconds;
        sum.accesses += r.accesses;
        sum.hits += r.hits;
      }
      if (kind == "model") {
        // The same arm with the JSONL event sink attached.
        obs::JsonlSink sink(dir + "/ladder_events.jsonl");
        cfg.obs.sink = &sink;
        cfg.obs.run_name = arm.name;
        const SpanLog::Scope stage = spans.scope("ladder.replay.obs", arm.name);
        Replay& sum = replays["obs"];
        const Replay r = replay_arm(cfg);
        sum.seconds += r.seconds;
        sum.accesses += r.accesses;
      }
    }
  }
  const Replay& shared = replays["shared"];
  const Replay& fixed = replays["static_equal"];
  const Replay& model = replays["model"];
  const Replay& throughput = replays["throughput"];
  const Replay& umon = replays["umon"];
  const Replay& observed = replays["obs"];
  const double per_access = 1e9 / sweep_accesses;
  const double stage_gen = arms_per_profile * gen;
  const double stage_resolve = arms_per_profile * priv;
  const double stage_shared = arms_per_profile * shared.seconds;
  const double stage_enforce =
      partitioned_per_profile * (fixed.seconds - shared.seconds);
  const double stage_runtime = model.seconds + throughput.seconds -
                               2.0 * fixed.seconds;
  m["ladder.generate_ns"] = stage_gen * per_access;
  m["ladder.resolve_ns"] = stage_resolve * per_access;
  m["ladder.replay_shared_ns"] = stage_shared * per_access;
  m["ladder.enforce_ns"] = stage_enforce * per_access;
  m["ladder.runtime_ns"] = stage_runtime * per_access;
  m["ladder.umon_ns"] =
      ratio((umon.seconds - fixed.seconds) * 1e9, static_cast<double>(umon.accesses));
  m["ladder.obs_ns"] = ratio((observed.seconds - model.seconds) * 1e9,
                             static_cast<double>(observed.accesses));
  const double stages =
      stage_gen + stage_resolve + stage_shared + stage_enforce + stage_runtime;
  m["ladder.residual_frac"] = (live - stages) / live;
  m["ladder.shared_hit_ratio"] =
      ratio(static_cast<double>(shared.hits), static_cast<double>(shared.accesses));
  m["ladder.enforce_hit_ratio"] =
      ratio(static_cast<double>(fixed.hits), static_cast<double>(fixed.accesses));
  m["ladder.runtime_hit_ratio"] =
      ratio(static_cast<double>(model.hits + throughput.hits),
            static_cast<double>(model.accesses + throughput.accesses));
  m["ladder.umon_hit_ratio"] =
      ratio(static_cast<double>(umon.hits), static_cast<double>(umon.accesses));
}

/// Generation-only passes over each profile's resolved op counts and warm
/// spool acquisitions.
void spool_layer(const LayerInputs& in, SpanLog& spans,
                 std::map<std::string, double>& m) {
  double gen = 0.0;
  double records = 0.0;
  std::vector<double> warm_ms;
  for (const sim::ExperimentConfig& cfg : in.workload->profiles) {
    const Spool spool = open_spool(cfg);
    records += static_cast<double>(spool.records);
    {
      const SpanLog::Scope span = spans.scope("spool.generate", cfg.profile);
      gen += generate_seconds(cfg, spool);
    }
    const SpanLog::Scope span = spans.scope("spool.acquire_warm", cfg.profile);
    const Clock::time_point start = Clock::now();
    (void)sim::spool_sources(cfg, per_thread_work(cfg));
    warm_ms.push_back(seconds_since(start) * 1e3);
  }
  m["spool.resolve_ns_per_op"] = ratio(in.resolve_s * 1e9, records);
  m["spool.private_ns_per_op"] = ratio((in.resolve_s - gen) * 1e9, records);
  m["spool.acquire_warm_ms"] = median(warm_ms);
}

/// Shared-level ops of every profile's spool through the L2 organizations
/// and the utility monitor, each built fresh (empty) per profile.
void mem_layer(const LayerInputs& in, const std::string& dir, SpanLog& spans,
               std::map<std::string, double>& m) {
  MicroTotals l2_totals;
  MicroTotals clos_totals;
  double umon_seconds = 0.0;
  double umon_ops = 0.0;
  double umon_sampled = 0.0;
  for (sim::ExperimentConfig cfg : in.workload->profiles) {
    cfg.trace_spool_dir = dir;
    const std::vector<SharedOp> ops =
        shared_ops(open_spool(cfg), kMicroOpsPerProfile);
    {
      const SpanLog::Scope span = spans.scope("mem.l2", cfg.profile);
      const std::unique_ptr<mem::L2Organization> l2 = mem::make_l2(
          mem::L2Mode::kPartitionedShared, cfg.l2, cfg.num_threads);
      l2->set_targets(core::equal_split(cfg.l2.ways, cfg.num_threads));
      replay_l2(*l2, ops, l2_totals);
    }
    {
      const SpanLog::Scope span = spans.scope("mem.clos", cfg.profile);
      const std::unique_ptr<mem::L2Organization> l2 = mem::make_l2(
          mem::L2Mode::kPartitionedShared, cfg.l2, cfg.num_threads,
          {.banks = 8, .enforce = mem::L2Enforce::kClosWayMask,
           .clos_budget = std::min(8u, cfg.num_threads)});
      replay_l2(*l2, ops, clos_totals);
    }
    {
      const SpanLog::Scope span = spans.scope("mem.umon", cfg.profile);
      mem::UtilityMonitor umon(cfg.l2, cfg.num_threads);
      const Clock::time_point start = Clock::now();
      for (const SharedOp& op : ops) umon.observe(op.thread, op.addr);
      umon_seconds += seconds_since(start);
      umon_ops += static_cast<double>(ops.size());
      for (ThreadId t = 0; t < cfg.num_threads; ++t) {
        umon_sampled += static_cast<double>(umon.sampled_accesses(t));
      }
    }
  }
  const auto ops = static_cast<double>(l2_totals.ops);
  m["mem.l2_ns_per_access"] = ratio(l2_totals.seconds * 1e9, ops);
  m["mem.l2_hit_ratio"] = ratio(static_cast<double>(l2_totals.hits), ops);
  m["mem.l2_probe_len_mean"] =
      ratio(static_cast<double>(l2_totals.lookups.probed_slots),
            static_cast<double>(l2_totals.lookups.lookups));
  m["mem.clos_ns_per_access"] =
      ratio(clos_totals.seconds * 1e9, static_cast<double>(clos_totals.ops));
  m["mem.umon_ns_per_observe"] = ratio(umon_seconds * 1e9, umon_ops);
  m["mem.umon_sampled_frac"] = ratio(umon_sampled, umon_ops);
}

/// Each arm's recorded intervals replayed into a fresh policy. Policies
/// that read UMON shadow tags are skipped: the replay has no monitor state.
void core_layer(const LayerInputs& in, SpanLog& spans,
                std::map<std::string, double>& m) {
  std::vector<double> us;
  double repartitions = 0.0;
  double moved = 0.0;
  const Workload& w = *in.workload;
  for (std::size_t k = 0; k < w.arms.size() && k < in.results->size(); ++k) {
    const sim::ExperimentConfig& cfg = w.arms[k].config;
    const core::Partitioner* partitioner = core::registry().find(cfg.policy);
    if (partitioner == nullptr || partitioner->needs_utility_monitor) continue;
    const SpanLog::Scope span = spans.scope("core.replay", w.arms[k].name);
    const std::unique_ptr<core::PartitionPolicy> policy =
        core::registry().make(cfg.policy, cfg.policy_options);
    const std::vector<core::ThreadSharing> sharing = sharing_of(cfg);
    const bool clos = cfg.l2_enforce == mem::L2Enforce::kClosWayMask;
    const core::PartitionContext ctx{
        .total_ways = clos ? std::max(cfg.l2.ways, cfg.num_threads)
                           : cfg.l2.ways,
        .num_threads = cfg.num_threads,
        .utility_monitor = nullptr,
        .memory_penalty = cfg.timing.memory_penalty,
        .l2_sets = cfg.l2.sets,
        .sharing = sharing,
    };
    for (const sim::IntervalRecord& record : (*in.results)[k].intervals) {
      const Clock::time_point start = Clock::now();
      const std::vector<std::uint32_t> next = policy->repartition(record, ctx);
      us.push_back(seconds_since(start) * 1e6);
      if (!policy->is_dynamic()) continue;
      repartitions += 1.0;
      double delta = 0.0;
      for (std::size_t t = 0; t < next.size() && t < record.threads.size(); ++t) {
        delta += std::abs(static_cast<double>(next[t]) -
                          static_cast<double>(record.threads[t].ways));
      }
      moved += std::floor(delta / 2.0);
    }
  }
  m["core.repartition_us_p50"] = percentile(us, 50.0);
  m["core.repartition_us_tail"] = percentile(us, tail_percentile(us.size()));
  m["core.repartitions"] = repartitions;
  m["core.ways_moved"] = moved;
}

}  // namespace

const std::vector<std::pair<std::string_view, std::string_view>>&
layer_specs() {
  static const std::vector<std::pair<std::string_view, std::string_view>>
      specs = {
          {"trace.fill_ns_per_op", "ns"},
          {"trace.fill_frac", "frac"},
          {"trace.ops", "count"},
          {"spool.resolve_s", "s"},
          {"spool.resolve_ns_per_op", "ns"},
          {"spool.private_ns_per_op", "ns"},
          {"spool.bytes", "bytes"},
          {"spool.acquire_warm_ms", "ms"},
          {"spool.fill_ns_per_op", "ns"},
          {"experiment.prepare_ms", "ms"},
          {"experiment.finalize_ms", "ms"},
          {"driver.interval_ms_p50", "ms"},
          {"driver.interval_ms_tail", "ms"},
          {"driver.self_ns_per_access", "ns"},
          {"mem.l2_ns_per_access", "ns"},
          {"mem.l2_hit_ratio", "frac"},
          {"mem.l2_probe_len_mean", "slots"},
          {"mem.clos_ns_per_access", "ns"},
          {"mem.umon_ns_per_observe", "ns"},
          {"mem.umon_sampled_frac", "frac"},
          {"core.repartition_us_p50", "us"},
          {"core.repartition_us_tail", "us"},
          {"core.repartitions", "count"},
          {"core.ways_moved", "count"},
          {"obs.event_ns_p50", "ns"},
          {"obs.events", "count"},
          {"obs.bytes", "bytes"},
          {"batch.efficiency", "frac"},
          {"batch.straggler_s", "s"},
          {"batch.arm_s_p50", "s"},
          {"batch.arm_s_tail", "s"},
          {"ladder.generate_ns", "ns"},
          {"ladder.resolve_ns", "ns"},
          {"ladder.replay_shared_ns", "ns"},
          {"ladder.enforce_ns", "ns"},
          {"ladder.runtime_ns", "ns"},
          {"ladder.umon_ns", "ns"},
          {"ladder.obs_ns", "ns"},
          {"ladder.residual_frac", "frac"},
          {"ladder.shared_hit_ratio", "frac"},
          {"ladder.enforce_hit_ratio", "frac"},
          {"ladder.runtime_hit_ratio", "frac"},
          {"ladder.umon_hit_ratio", "frac"},
          {"model.cycles_total", "cycles"},
          {"model.l2_miss_ratio", "frac"},
          {"model.gain_vs_shared_pct", "%"},
          {"tracing.overhead_frac", "frac"},
      };
  return specs;
}

void measure_layers(const LayerInputs& in, SpanLog& spans,
                    std::map<std::string, double>& m) {
  std::string dir = in.spool_dir;
  const Workload& w = *in.workload;
  if (!w.spooled) {
    dir = in.workdir + "/ladder";
    std::filesystem::create_directories(dir);
    ladder(in, dir, spans, m);
  } else {
    spool_layer(in, spans, m);
  }
  mem_layer(in, dir, spans, m);
  core_layer(in, spans, m);
}

}  // namespace capart::e2e
