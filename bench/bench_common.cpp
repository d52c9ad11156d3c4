#include "bench_common.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "src/common/error.hpp"
#include "src/common/parse.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "src/report/batch_summary.hpp"
#include "src/report/csv.hpp"

namespace capart::bench {
namespace {

/// Set once a batch finishes with failed arms; read by exit_status().
std::atomic<bool> g_arms_failed{false};

}  // namespace

int exit_status() noexcept { return g_arms_failed.load() ? 1 : 0; }

BenchOptions parse_options(int argc, char** argv) try {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    if (key == "--intervals") {
      opt.intervals = parse_u32_flag(value, "--intervals");
    } else if (key == "--profile") {
      opt.profiles = split_flag_list(value, "--profile");
    } else if (key == "--interval-instr") {
      opt.interval_instructions = parse_u64_flag(value, "--interval-instr");
    } else if (key == "--threads") {
      opt.threads = parse_u32_flag(value, "--threads");
    } else if (key == "--seed") {
      opt.seed = parse_u64_flag(value, "--seed");
    } else if (key == "--l2-repl") {
      if (!mem::parse_replacement(value, opt.l2_repl)) {
        std::fprintf(stderr,
                     "invalid value for --l2-repl: want lru, plru or srrip\n");
        std::exit(2);
      }
    } else if (key == "--l2-banks") {
      opt.l2_banks = parse_u32_flag(value, "--l2-banks");
    } else if (key == "--l2-enforce") {
      if (!mem::parse_l2_enforce(value, opt.l2_enforce)) {
        std::fprintf(stderr,
                     "invalid value for --l2-enforce: want default, "
                     "eviction-control or clos\n");
        std::exit(2);
      }
    } else if (key == "--clos-budget") {
      opt.clos_budget = parse_u32_flag(value, "--clos-budget");
    } else if (key == "--clos-mapper") {
      if (!core::parse_clos_mapper(value, opt.clos_mapper)) {
        std::fprintf(stderr,
                     "invalid value for --clos-mapper: want none, nearest, "
                     "minmax or lfoc\n");
        std::exit(2);
      }
    } else if (key == "--jobs") {
      opt.jobs = parse_u32_flag(value, "--jobs");
      if (opt.jobs == 0) {
        std::fprintf(stderr, "invalid value for --jobs: must be >= 1\n");
        std::exit(2);
      }
    } else if (key == "--trace-dir") {
      opt.trace_dir = std::string(value);
    } else if (key == "--trace-dir-max-bytes") {
      opt.trace_dir_max_bytes = parse_u64_flag(value, "--trace-dir-max-bytes");
    } else if (key == "--arm-retries") {
      opt.arm_retries = parse_u32_flag(value, "--arm-retries");
    } else if (key == "--arm-deadline") {
      opt.arm_deadline = parse_f64_flag(value, "--arm-deadline");
    } else if (key == "--events-out") {
      opt.events_out = std::string(value);
    } else if (key == "--trace-out") {
      opt.trace_out = std::string(value);
    } else if (key == "--csv") {
      opt.csv_out = std::string(value);
    } else if (key == "--help" || key == "-h") {
      std::printf(
          "flags: --intervals=N --interval-instr=N --threads=N --seed=N "
          "--jobs=N\n"
          "       --trace-dir=DIR --trace-dir-max-bytes=N\n"
          "       --profile=NAME[,..] --arm-retries=N --arm-deadline=SECONDS\n"
          "       --l2-repl=lru|plru|srrip\n"
          "       --l2-banks=N --l2-enforce=default|eviction-control|clos\n"
          "       --clos-budget=N --clos-mapper=none|nearest|minmax|lfoc\n"
          "       --events-out=PATH --trace-out=STEM --csv=STEM\n"
          "  --profile=NAME[,..] restrict the bench to these workload "
          "profiles\n"
          "                  (default: the bench's own list)\n"
          "  --l2-repl=NAME  shared-L2 replacement policy (default lru)\n"
          "  --l2-banks=N    banked shared L2 (power of two; 0 = monolithic "
          "with\n"
          "                  infinite bandwidth; contents bit-identical)\n"
          "  --l2-enforce=NAME  partition enforcement (clos = CAT-style "
          "way\n"
          "                  masks; supports threads > ways)\n"
          "  --clos-budget=N    CLOS classes under clos (default 8)\n"
          "  --clos-mapper=NAME thread->CLOS clustering (default nearest)\n"
          "  --jobs=N  run up to N experiments concurrently (default: all "
          "cores);\n"
          "            results are bit-identical for any value\n"
          "  --trace-dir=DIR resolved-trace spool directory (default off);\n"
          "            arms sharing a profile amortize one resolve pass\n"
          "  --trace-dir-max-bytes=N LRU size cap for the spool directory\n"
          "            (default 0 = unbounded)\n"
          "  --arm-retries=N        re-run a failed arm up to N times "
          "(default 0)\n"
          "  --arm-deadline=SEC     per-arm wall-clock budget; an expired arm "
          "stops\n"
          "                         at its next interval boundary (default: "
          "none)\n"
          "  --events-out=PATH  JSONL run telemetry, all arms in one file\n"
          "  --trace-out=STEM   Chrome trace per arm "
          "(STEM.<profile>.<arm>.json)\n"
          "  --csv=STEM         per-interval CSV per arm "
          "(STEM.<profile>.<arm>.csv)\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return opt;
} catch (const Error& error) {
  std::fprintf(stderr, "%s\n", error.what());
  std::exit(2);
}

Instructions resolved_interval_instructions(const BenchOptions& opt) noexcept {
  return opt.interval_instructions != 0 ? opt.interval_instructions
                                        : Instructions{60'000} * opt.threads;
}

unsigned resolved_jobs(const BenchOptions& opt) noexcept {
  return opt.jobs != 0 ? opt.jobs : sim::default_jobs();
}

sim::ExperimentConfig base_config(const BenchOptions& opt,
                                  const std::string& profile) {
  sim::ExperimentConfig cfg;
  cfg.profile = profile;
  cfg.num_threads = opt.threads;
  cfg.num_intervals = opt.intervals;
  cfg.interval_instructions = resolved_interval_instructions(opt);
  cfg.seed = opt.seed;
  cfg.l2.repl = opt.l2_repl;
  cfg.l2_banks = opt.l2_banks;
  cfg.l2_enforce = opt.l2_enforce;
  cfg.clos_budget = opt.clos_budget;
  cfg.clos_mapper = opt.clos_mapper;
  cfg.trace_spool_dir = opt.trace_dir;
  cfg.trace_spool_max_bytes = opt.trace_dir_max_bytes;
  return cfg;
}

std::string bench_arm_name(const core::Partitioner& p) {
  if (p.name == "static-equal") return "static_equal";
  if (p.name == "time-shared") return "time_shared";
  return p.aliases.empty() ? p.name : p.aliases.front();
}

const std::vector<ArmEntry>& arm_registry() {
  static const std::vector<ArmEntry> registry = [] {
    std::vector<ArmEntry> arms;
    arms.push_back({"shared", shared_arm});
    arms.push_back({"private", private_arm});
    // One arm per registered partitioner — the partitioned organization
    // running that policy. New registry entries appear here without any
    // bench change.
    for (const core::Partitioner* p : core::registry().describe()) {
      arms.push_back({bench_arm_name(*p),
                      [name = p->name](sim::ExperimentConfig cfg) {
                        cfg.l2_mode = mem::L2Mode::kPartitionedShared;
                        cfg.policy = name;
                        return cfg;
                      }});
    }
    arms.push_back({"coloring", coloring_arm});
    arms.push_back({"flush", flush_arm});
    arms.push_back({"linear_model", linear_model_arm});
    return arms;
  }();
  return registry;
}

ArmTransform find_arm(std::string_view arm) {
  for (const ArmEntry& entry : arm_registry()) {
    if (entry.name == arm) return entry.transform;
  }
  std::fprintf(stderr, "unknown experiment arm '%.*s'; known arms:",
               static_cast<int>(arm.size()), arm.data());
  for (const ArmEntry& entry : arm_registry()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(entry.name.size()),
                 entry.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

sim::ExperimentConfig make_arm(std::string_view arm,
                               sim::ExperimentConfig cfg) {
  return find_arm(arm)(std::move(cfg));
}

std::string arm_key(std::string_view profile, std::string_view arm) {
  std::string key(profile);
  key += '/';
  key += arm;
  return key;
}

sim::ExperimentSpec profile_sweep(const BenchOptions& opt,
                                  const std::vector<std::string>& profiles,
                                  const std::vector<std::string>& arms,
                                  std::string spec_name) {
  sim::ExperimentSpec spec;
  spec.name = std::move(spec_name);
  for (const std::string& profile : profiles) {
    const sim::ExperimentConfig base = base_config(opt, profile);
    for (const std::string& arm : arms) {
      spec.add(arm_key(profile, arm), make_arm(arm, base));
    }
  }
  return spec;
}

namespace {

/// "cg/model" -> "cg.model" (arm keys become file-name fragments).
std::string arm_file_fragment(std::string arm) {
  for (char& ch : arm) {
    if (ch == '/') ch = '.';
  }
  return arm;
}

}  // namespace

sim::BatchResult run_spec(const sim::ExperimentSpec& spec,
                          const BenchOptions& opt) {
  const sim::BatchPolicy policy{.max_retries = opt.arm_retries,
                                .arm_deadline_seconds = opt.arm_deadline,
                                .fail_fast = false};
  const sim::BatchRunner runner(resolved_jobs(opt), policy);

  // Observability: all arms share one JSONL sink; each event carries its arm
  // name, so the file stays attributable under concurrent execution.
  std::unique_ptr<obs::JsonlSink> sink;
  const sim::ExperimentSpec* to_run = &spec;
  sim::ExperimentSpec observed;
  if (!opt.events_out.empty()) {
    try {
      sink = std::make_unique<obs::JsonlSink>(opt.events_out);
    } catch (const Error& error) {
      std::fprintf(stderr, "%s\n", error.what());
      std::exit(1);
    }
    observed = spec;
    for (sim::ExperimentArm& arm : observed.arms) {
      arm.config.obs.sink = sink.get();
      arm.config.obs.run_name = arm.name;
    }
    to_run = &observed;
  }

  sim::BatchResult batch = runner.run(*to_run);
  if (sink != nullptr) sink->flush();

  // Failed arms carry no result; only surviving arms produce artifacts.
  if (!opt.trace_out.empty()) {
    for (const sim::ArmOutcome& arm : batch.arms) {
      if (!arm.ok()) continue;
      const std::string path =
          opt.trace_out + "." + arm_file_fragment(arm.name) + ".json";
      std::ofstream os(path);
      if (!os.is_open()) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
      }
      obs::write_chrome_trace(os, arm.result.intervals, arm.name);
    }
  }
  if (!opt.csv_out.empty()) {
    for (const sim::ArmOutcome& arm : batch.arms) {
      if (!arm.ok()) continue;
      const std::string path =
          opt.csv_out + "." + arm_file_fragment(arm.name) + ".csv";
      std::ofstream os(path);
      if (!os.is_open()) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
      }
      report::write_interval_csv(os, arm.result.intervals);
    }
  }

  report::print_batch_summary(std::cout, batch);
  std::cout << "\n";
  if (!batch.all_ok()) {
    report::print_failed_arms(std::cerr, batch);
    g_arms_failed.store(true);
  }
  return batch;
}

sim::ExperimentConfig shared_arm(sim::ExperimentConfig cfg) {
  cfg.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  cfg.policy = std::string(core::kNoPolicyName);
  return cfg;
}

sim::ExperimentConfig private_arm(sim::ExperimentConfig cfg) {
  cfg.l2_mode = mem::L2Mode::kPrivatePerThread;
  cfg.policy = std::string(core::kNoPolicyName);
  return cfg;
}

sim::ExperimentConfig static_equal_arm(sim::ExperimentConfig cfg) {
  return make_arm("static_equal", std::move(cfg));
}

sim::ExperimentConfig model_arm(sim::ExperimentConfig cfg) {
  return make_arm("model", std::move(cfg));
}

sim::ExperimentConfig cpi_arm(sim::ExperimentConfig cfg) {
  return make_arm("cpi", std::move(cfg));
}

sim::ExperimentConfig throughput_arm(sim::ExperimentConfig cfg) {
  return make_arm("throughput", std::move(cfg));
}

sim::ExperimentConfig time_shared_arm(sim::ExperimentConfig cfg) {
  return make_arm("time_shared", std::move(cfg));
}

sim::ExperimentConfig umon_arm(sim::ExperimentConfig cfg) {
  return make_arm("umon", std::move(cfg));
}

sim::ExperimentConfig fair_arm(sim::ExperimentConfig cfg) {
  return make_arm("fair", std::move(cfg));
}

sim::ExperimentConfig ucp_arm(sim::ExperimentConfig cfg) {
  return make_arm("ucp", std::move(cfg));
}

sim::ExperimentConfig lfoc_arm(sim::ExperimentConfig cfg) {
  return make_arm("lfoc", std::move(cfg));
}

sim::ExperimentConfig reuse_arm(sim::ExperimentConfig cfg) {
  return make_arm("reuse", std::move(cfg));
}

sim::ExperimentConfig coloring_arm(sim::ExperimentConfig cfg) {
  cfg.l2_mode = mem::L2Mode::kSetPartitionedShared;
  cfg.policy = "model-based";
  return cfg;
}

sim::ExperimentConfig flush_arm(sim::ExperimentConfig cfg) {
  cfg.l2_mode = mem::L2Mode::kFlushReconfigureShared;
  cfg.policy = "model-based";
  return cfg;
}

sim::ExperimentConfig linear_model_arm(sim::ExperimentConfig cfg) {
  cfg = make_arm("model", std::move(cfg));
  cfg.policy_options.model_kind = core::ModelKind::kPiecewiseLinear;
  return cfg;
}

void banner(const std::string& what, const BenchOptions& opt) {
  std::printf("== %s ==\n", what.c_str());
  std::printf(
      "threads=%u intervals=%u interval-instr=%llu seed=%llu jobs=%u "
      "(scaled config; see EXPERIMENTS.md)\n\n",
      opt.threads, opt.intervals,
      static_cast<unsigned long long>(resolved_interval_instructions(opt)),
      static_cast<unsigned long long>(opt.seed), resolved_jobs(opt));
}

}  // namespace capart::bench
