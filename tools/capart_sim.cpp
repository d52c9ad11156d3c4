// capart_sim — command-line front end for the simulator.
//
// Runs one experiment and reports totals, per-thread statistics and
// (optionally) the per-interval series as CSV, exposing every knob the
// library configuration offers:
//
//   capart_sim --profile=cg --policy=model --l2-mode=partitioned
//              --intervals=40 --interval-instr=240000 --csv=intervals.csv
//
// --profile and --policy accept comma-separated lists; the cross product
// becomes a batch that runs concurrently (--jobs=N, default: all cores)
// with one summary row per arm. Batch results are bit-identical for any
// jobs count.
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/parse.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "src/obs/metrics.hpp"
#include "src/report/batch_summary.hpp"
#include "src/report/csv.hpp"
#include "src/report/table.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/benchmarks.hpp"

namespace {

using namespace capart;

[[noreturn]] void usage(int code) {
  std::printf(R"(capart_sim — intra-application cache partitioning simulator

flags:
  --profile=NAME[,..]   workload: cg mg ft lu bt swim mgrid applu equake
                        (a comma-separated list runs every profile)
  --policy=NAME[,..]    a registered partitioner (canonical name or alias;
                        see --list-policies) or none for a pure monitor
                        (a comma-separated list runs every policy)
  --list-policies       print every registered partitioner with its aliases,
                        options and summary, then exit
  --l2-mode=NAME        shared partitioned private coloring flush
  --threads=N           cores/threads (default 4)
  --intervals=N         execution intervals (default 40)
  --interval-instr=N    aggregate instructions per interval (default 240000)
  --l2-ways=N           shared-cache associativity (default 64)
  --l2-sets=N           shared-cache sets (default 256)
  --l2-repl=NAME        shared-cache replacement: lru plru srrip (default lru)
  --l1-repl=NAME        private-L1 replacement: lru plru srrip (default lru)
  --overhead=N          runtime repartition overhead in cycles (default 800)
  --l2-banks=N          shared-cache banks: address-interleaved structure +
                        bank-contention timing (0 = monolithic, no
                        contention; N must be a power of two)
  --l2-enforce=NAME     partition enforcement: default eviction-control clos
                        (clos = CAT-style way masks; supports threads > ways)
  --clos-budget=N       CLOS count with --l2-enforce=clos (default 8)
  --clos-mapper=NAME    thread->CLOS clustering: none nearest minmax lfoc
                        (default nearest; lfoc clusters on the classes a
                        classifying policy publishes)
  --seed=N              workload seed (default 42)
  --jobs=N              concurrent experiments in batch mode (default: all
                        cores); results are bit-identical for any value
  --trace-dir=DIR       resolved-trace spool directory (default off); runs
                        sharing a workload profile amortize one
                        generate+resolve pass; results are bit-identical
  --trace-dir-max-bytes=N  evict least-recently-used spool files above this
                        many bytes after each acquisition (default 0 = keep
                        everything; files held by this process are exempt)
  --arm-retries=N       batch mode: re-run a failed arm up to N times
                        (default 0)
  --arm-deadline=SEC    batch mode: per-arm wall-clock budget in seconds; an
                        expired arm stops at its next interval boundary and
                        reports timed_out (default: none)
  --private-l2          insert private per-core L2s (shared cache becomes L3)
  --csv=PATH            write the per-interval series as CSV; in batch mode
                        PATH is a stem and each arm writes
                        stem.<profile>.<policy>.csv
  --events-out=PATH     write structured JSONL run telemetry (manifest,
                        intervals, repartitions, barrier stalls, migrations,
                        run end); batch arms share the file, tagged by arm
  --trace-out=PATH      write a Chrome trace-event timeline (open in
                        https://ui.perfetto.dev); in batch mode PATH is a
                        stem and each arm writes stem.<profile>.<policy>.json
  --metrics             print the metrics-registry rollup after the run
  --quiet               print only the one-line summary
  --help
)");
  std::exit(code);
}

/// The registry is the source of truth for --policy: any canonical name or
/// alias resolves; anything else lists what would have been accepted.
std::string parse_policy(std::string_view v) {
  const std::string_view canonical = core::registry().canonical(v);
  if (canonical.empty()) {
    std::fprintf(stderr, "unknown policy '%.*s' (expected %s)\n",
                 int(v.size()), v.data(),
                 core::registry().known_names(/*include_none=*/true).c_str());
    usage(2);
  }
  return std::string(canonical);
}

[[noreturn]] void list_policies() {
  std::printf(
      "registered partitioners (--policy accepts canonical names or "
      "aliases):\n");
  for (const core::Partitioner* p : core::registry().describe()) {
    std::printf("\n  %s", p->name.c_str());
    for (const std::string& alias : p->aliases) {
      std::printf(" (alias: %s)", alias.c_str());
    }
    if (p->needs_utility_monitor) std::printf(" [needs shadow-tag UMON]");
    if (!p->dynamic) std::printf(" [static]");
    std::printf("\n      %s\n", p->summary.c_str());
    for (const core::PartitionerOption& opt : p->options) {
      std::printf("      option %.*s: %.*s\n", int(opt.key.size()),
                  opt.key.data(), int(opt.doc.size()), opt.doc.data());
    }
  }
  std::printf("\n  none\n      pure monitor: no repartitioning at all\n");
  std::exit(0);
}

mem::L2Mode parse_mode(std::string_view v) {
  if (v == "shared") return mem::L2Mode::kSharedUnpartitioned;
  if (v == "partitioned") return mem::L2Mode::kPartitionedShared;
  if (v == "private") return mem::L2Mode::kPrivatePerThread;
  if (v == "coloring") return mem::L2Mode::kSetPartitionedShared;
  if (v == "flush") return mem::L2Mode::kFlushReconfigureShared;
  std::fprintf(stderr, "unknown l2 mode '%.*s'\n", int(v.size()), v.data());
  usage(2);
}

mem::ReplacementKind parse_repl(std::string_view v, const char* flag) {
  mem::ReplacementKind kind{};
  if (!mem::parse_replacement(v, kind)) {
    std::fprintf(stderr, "invalid value for %s: want lru, plru or srrip\n",
                 flag);
    usage(2);
  }
  return kind;
}

mem::L2Enforce parse_enforce(std::string_view v) {
  mem::L2Enforce enforce{};
  if (!mem::parse_l2_enforce(v, enforce)) {
    std::fprintf(stderr,
                 "invalid value for --l2-enforce: want default, "
                 "eviction-control or clos\n");
    usage(2);
  }
  return enforce;
}

core::ClosMapperKind parse_mapper(std::string_view v) {
  core::ClosMapperKind kind{};
  if (!core::parse_clos_mapper(v, kind)) {
    std::fprintf(stderr,
                 "invalid value for --clos-mapper: want none, nearest, "
                 "minmax or lfoc\n");
    usage(2);
  }
  return kind;
}

/// Batch output files derive from a stem: "runs.csv" -> "runs", so arm files
/// become runs.<profile>.<policy>.csv rather than runs.csv.cg.model.csv.
std::string strip_suffix(std::string path, std::string_view suffix) {
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    path.resize(path.size() - suffix.size());
  }
  return path;
}

/// "cg/model" -> "cg.model" (arm keys become file-name fragments).
std::string arm_file_fragment(std::string arm) {
  for (char& ch : arm) {
    if (ch == '/') ch = '.';
  }
  return arm;
}

bool open_or_die(std::ofstream& os, const std::string& path) {
  os.open(path);
  if (!os.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentConfig cfg;
  std::vector<std::string> profiles = {cfg.profile};
  // (display name as typed, canonical registry name) pairs: the user's
  // spelling names the arm (and its output files), the canonical name goes
  // into the config. The default mirrors ExperimentConfig's default.
  std::vector<std::pair<std::string, std::string>> policies = {
      {"model", cfg.policy}};
  bool had_policy_flag = false;
  unsigned jobs = 0;
  sim::BatchPolicy batch_policy;
  std::string csv_path;
  std::string events_path;
  std::string trace_path;
  bool want_metrics = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto eq = arg.find('=');
      const std::string_view key = arg.substr(0, eq);
      const std::string_view value = eq == std::string_view::npos
                                         ? std::string_view{}
                                         : arg.substr(eq + 1);
      if (key == "--help" || key == "-h") usage(0);
      else if (key == "--list-policies") list_policies();
      else if (key == "--profile")
        profiles = split_flag_list(value, "--profile");
      else if (key == "--policy") {
        policies.clear();
        for (const std::string& name : split_flag_list(value, "--policy")) {
          policies.emplace_back(name, parse_policy(name));
        }
        had_policy_flag = true;
      } else if (key == "--l2-mode") cfg.l2_mode = parse_mode(value);
      else if (key == "--threads")
        cfg.num_threads = parse_u32_flag(value, "--threads");
      else if (key == "--intervals")
        cfg.num_intervals = parse_u32_flag(value, "--intervals");
      else if (key == "--interval-instr")
        cfg.interval_instructions = parse_u64_flag(value, "--interval-instr");
      else if (key == "--l2-ways")
        cfg.l2.ways = parse_u32_flag(value, "--l2-ways");
      else if (key == "--l2-sets")
        cfg.l2.sets = parse_u32_flag(value, "--l2-sets");
      else if (key == "--l2-repl") cfg.l2.repl = parse_repl(value, "--l2-repl");
      else if (key == "--l1-repl") cfg.l1.repl = parse_repl(value, "--l1-repl");
      else if (key == "--overhead")
        cfg.runtime_overhead_cycles = parse_u64_flag(value, "--overhead");
      else if (key == "--l2-banks")
        cfg.l2_banks = parse_u32_flag(value, "--l2-banks");
      else if (key == "--l2-enforce") cfg.l2_enforce = parse_enforce(value);
      else if (key == "--clos-budget")
        cfg.clos_budget = parse_u32_flag(value, "--clos-budget");
      else if (key == "--clos-mapper") cfg.clos_mapper = parse_mapper(value);
      else if (key == "--seed") cfg.seed = parse_u64_flag(value, "--seed");
      else if (key == "--jobs") {
        jobs = parse_u32_flag(value, "--jobs");
        if (jobs == 0) {
          std::fprintf(stderr, "invalid value for --jobs: must be >= 1\n");
          usage(2);
        }
      } else if (key == "--trace-dir")
        cfg.trace_spool_dir = std::string(value);
      else if (key == "--trace-dir-max-bytes")
        cfg.trace_spool_max_bytes =
            parse_u64_flag(value, "--trace-dir-max-bytes");
      else if (key == "--arm-retries")
        batch_policy.max_retries = parse_u32_flag(value, "--arm-retries");
      else if (key == "--arm-deadline")
        batch_policy.arm_deadline_seconds =
            parse_f64_flag(value, "--arm-deadline");
      else if (key == "--private-l2") cfg.enable_private_l2 = true;
      else if (key == "--csv") csv_path = std::string(value);
      else if (key == "--events-out") events_path = std::string(value);
      else if (key == "--trace-out") trace_path = std::string(value);
      else if (key == "--metrics") want_metrics = true;
      else if (key == "--quiet") quiet = true;
      else {
        std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
        usage(2);
      }
    }
  } catch (const Error& error) {
    std::fprintf(stderr, "%s\n", error.what());
    usage(2);
  }
  // Pure monitor runs make sense on non-partitionable organizations; keep
  // the partitioned default policy otherwise.
  if (!had_policy_flag &&
      (cfg.l2_mode == mem::L2Mode::kSharedUnpartitioned ||
       cfg.l2_mode == mem::L2Mode::kPrivatePerThread)) {
    policies = {{"none", std::string(core::kNoPolicyName)}};
  }
  if (profiles.empty() || policies.empty()) {
    std::fprintf(stderr, "empty --profile or --policy list\n");
    usage(2);
  }

  // Several profiles and/or policies: run the cross product as a batch and
  // print one summary row per arm instead of the single-run detail view.
  if (profiles.size() * policies.size() > 1) {
    std::unique_ptr<obs::JsonlSink> sink;
    obs::MetricsRegistry metrics;
    sim::ExperimentSpec spec;
    spec.name = "capart_sim";
    try {
      if (!events_path.empty()) {
        sink = std::make_unique<obs::JsonlSink>(events_path);
      }
      for (const std::string& profile : profiles) {
        for (const auto& [policy_name, policy] : policies) {
          sim::ExperimentConfig arm = cfg;
          arm.profile = profile;
          arm.policy = policy;
          arm.obs.sink = sink.get();
          arm.obs.metrics = want_metrics ? &metrics : nullptr;
          arm.obs.run_name = profile + "/" + policy_name;
          spec.add(profile + "/" + policy_name, std::move(arm));
        }
      }
    } catch (const Error& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
    const sim::BatchRunner runner(jobs, batch_policy);
    const sim::BatchResult batch = runner.run(spec);
    if (sink != nullptr) sink->flush();
    report::Table table(
        {"arm", "status", "cycles", "instructions", "wall-CPI", "wall"});
    for (const sim::ArmOutcome& arm : batch.arms) {
      const std::string wall = report::fmt(arm.wall_seconds * 1e3, 1) + " ms";
      if (!arm.ok()) {
        table.add_row({arm.name, std::string(sim::to_string(arm.status)), "-",
                       "-", "-", wall});
        continue;
      }
      const double arm_cpi =
          static_cast<double>(arm.result.outcome.total_cycles) /
          (static_cast<double>(arm.result.outcome.instructions_retired) /
           cfg.num_threads);
      table.add_row({arm.name, "ok",
                     std::to_string(arm.result.outcome.total_cycles),
                     std::to_string(arm.result.outcome.instructions_retired),
                     report::fmt(arm_cpi, 2), wall});
    }
    if (!quiet) {
      table.print(std::cout);
      std::cout << "\n";
    }
    // Per-arm interval CSVs / Chrome traces: the flag value is a stem, one
    // file per arm (stem.<profile>.<policy>.csv / .json). Failed arms carry
    // no result and write nothing.
    if (!csv_path.empty()) {
      const std::string stem = strip_suffix(csv_path, ".csv");
      for (const sim::ArmOutcome& arm : batch.arms) {
        if (!arm.ok()) continue;
        const std::string path =
            stem + "." + arm_file_fragment(arm.name) + ".csv";
        std::ofstream os;
        if (!open_or_die(os, path)) return 1;
        report::write_interval_csv(os, arm.result.intervals);
      }
      if (!quiet) {
        std::cout << "per-interval CSVs written to " << stem
                  << ".<profile>.<policy>.csv\n";
      }
    }
    if (!trace_path.empty()) {
      const std::string stem = strip_suffix(trace_path, ".json");
      for (const sim::ArmOutcome& arm : batch.arms) {
        if (!arm.ok()) continue;
        const std::string path =
            stem + "." + arm_file_fragment(arm.name) + ".json";
        std::ofstream os;
        if (!open_or_die(os, path)) return 1;
        obs::write_chrome_trace(os, arm.result.intervals, arm.name);
      }
      if (!quiet) {
        std::cout << "Chrome traces written to " << stem
                  << ".<profile>.<policy>.json\n";
      }
    }
    report::print_batch_summary(std::cout, batch,
                                {.list_arms = false, .slowest = 0});
    if (want_metrics) {
      std::cout << "\n";
      metrics.print_rollup(std::cout);
    }
    if (!batch.all_ok()) {
      report::print_failed_arms(std::cerr, batch);
      return 1;
    }
    return 0;
  }

  cfg.profile = profiles.front();
  cfg.policy = policies.front().second;
  std::unique_ptr<obs::JsonlSink> sink;
  obs::MetricsRegistry metrics;
  sim::ExperimentResult r;
  try {
    if (!events_path.empty()) {
      sink = std::make_unique<obs::JsonlSink>(events_path);
      cfg.obs.sink = sink.get();
    }
    if (want_metrics) cfg.obs.metrics = &metrics;
    cfg.obs.run_name = cfg.profile + "/" + policies.front().first;
    r = sim::run_experiment(cfg);
  } catch (const Error& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  if (sink != nullptr) sink->flush();

  const double total_cpi =
      static_cast<double>(r.outcome.total_cycles) /
      (static_cast<double>(r.outcome.instructions_retired) /
       cfg.num_threads);
  std::printf(
      "%s policy=%s l2=%s threads=%u: %llu cycles, %llu instructions, "
      "wall-CPI %.2f\n",
      cfg.profile.c_str(), cfg.policy.c_str(),
      std::string(mem::to_string(cfg.l2_mode)).c_str(), cfg.num_threads,
      static_cast<unsigned long long>(r.outcome.total_cycles),
      static_cast<unsigned long long>(r.outcome.instructions_retired),
      total_cpi);

  if (!quiet) {
    report::Table table({"thread", "CPI", "L2 misses", "exec cycles",
                         "stall cycles", "stall share"});
    for (ThreadId t = 0; t < r.thread_totals.size(); ++t) {
      const auto& c = r.thread_totals[t];
      const double stall_share =
          static_cast<double>(c.stall_cycles) /
          static_cast<double>(c.exec_cycles + c.stall_cycles);
      table.add_row({"t" + std::to_string(t + 1), report::fmt(c.cpi(), 2),
                     std::to_string(c.l2_misses),
                     std::to_string(c.exec_cycles),
                     std::to_string(c.stall_cycles),
                     report::fmt_pct(stall_share, 1)});
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nL2 inter-thread interactions: "
              << report::fmt_pct(r.l2_stats.inter_thread_fraction(), 1)
              << " of accesses ("
              << report::fmt_pct(r.l2_stats.constructive_fraction(), 1)
              << " constructive)\n";
  }

  if (!csv_path.empty()) {
    std::ofstream os;
    if (!open_or_die(os, csv_path)) return 1;
    report::write_interval_csv(os, r.intervals);
    if (!quiet) {
      std::cout << "per-interval series written to " << csv_path << "\n";
    }
  }
  if (!trace_path.empty()) {
    std::ofstream os;
    if (!open_or_die(os, trace_path)) return 1;
    obs::write_chrome_trace(os, r.intervals, cfg.obs.run_name);
    if (!quiet) {
      std::cout << "Chrome trace written to " << trace_path
                << " (open in https://ui.perfetto.dev)\n";
    }
  }
  if (!events_path.empty() && !quiet) {
    std::cout << "events written to " << events_path << " ("
              << sink->events_written() << " events)\n";
  }
  if (want_metrics) {
    std::cout << "\n";
    metrics.print_rollup(std::cout);
  }
  return 0;
}
