// Perf-regression smoke for the simulator hot path (the --l2-index axis).
//
// Runs the fig19-21 arm union (every benchmark profile x {model,
// static_equal, shared, throughput}) under both tag-lookup mechanisms — scan
// and hash — on the same seed, then:
//
//   * asserts bit-identity: per-arm simulated cycles, instructions, L2
//     accesses/hits/misses must match exactly between the two mechanisms
//     (the index only changes how the resident way is found, never what the
//     cache does — src/mem/block_index.hpp) AND across repetitions;
//   * de-flakes the timing: each mechanism runs --warmup throwaway passes
//     (page cache, branch predictors, the trace spool's one-time resolve)
//     followed by --reps measured passes, and every reported number and the
//     regression gate use the MEDIAN serial-equivalent time, which is robust
//     against a single noisy-neighbour rep the mean is not;
//   * emits BENCH_hotpath.json with per-rep and median wall seconds,
//     per-kind accesses/sec, and the headline speedup_hash_over_scan;
//   * with --check=BASELINE.json, compares the measured median speedup
//     *ratio* against the committed baseline and fails on a >tolerance
//     regression. The ratio (not absolute accesses/sec) is compared so the
//     gate holds across machines of different speeds; the threshold is
//     --tolerance.
//
// --trace-dir enables the resolved-trace spool (sim/trace_spool.hpp): the
// first pass generates+resolves each profile's streams once and every later
// arm replays them mmap()ed, which is the production fast path and the one
// the committed baseline measures. The resolve stage is timed separately
// (a dedicated spool-acquire pass before measurement, reported as
// resolve_seconds) so the measured reps are pure replay and the JSON splits
// the two stages. simd_backend records which tag-probe backend the binary
// was built with.
//
// CI runs this in Release at --jobs=1 (tools/run via .github/workflows);
// regenerate the baseline with:
//   build/tools/capart_perfsmoke --trace-dir=/tmp/capart_spool
//       --out=bench/BENCH_hotpath_baseline.json  (one command line)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "src/mem/block_index.hpp"
#include "src/mem/simd.hpp"
#include "src/obs/json.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"

namespace {

using namespace capart;

struct Options {
  std::uint32_t intervals = 40;
  Instructions interval_instructions = 0;  // 0 -> bench default
  ThreadId threads = 4;
  std::uint64_t seed = 42;
  unsigned jobs = 1;  // serial by default: wall time is the measurement
  std::string trace_dir;  // resolved-trace spool directory (empty = off)
  std::uint32_t reps = 3;    // measured repetitions; the median gates
  std::uint32_t warmup = 1;  // throwaway passes before measuring
  std::string out = "BENCH_hotpath.json";
  std::string check;      // baseline JSON to gate against (empty = no gate)
  double tolerance = 0.25;  // allowed fractional speedup regression
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(
      stderr,
      "usage: capart_perfsmoke [flags]\n"
      "  --intervals=N       execution intervals per arm (default 40)\n"
      "  --interval-instr=N  instructions per interval (default bench)\n"
      "  --threads=N         cores (default 4)\n"
      "  --seed=N            workload seed (default 42)\n"
      "  --jobs=N            concurrent arms (default 1; keep 1 for timing)\n"
      "  --trace-dir=DIR     resolved-trace spool directory (default off)\n"
      "  --reps=N            measured repetitions; median gates (default 3)\n"
      "  --warmup=N          throwaway passes before measuring (default 1)\n"
      "  --out=PATH          result JSON (default BENCH_hotpath.json)\n"
      "  --check=PATH        baseline JSON; fail on speedup regression\n"
      "  --tolerance=X       allowed fractional regression (default 0.25)\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) usage_and_exit();
    const std::string_view key = arg.substr(0, eq);
    const std::string value{arg.substr(eq + 1)};
    if (key == "--intervals") {
      opt.intervals = static_cast<std::uint32_t>(std::stoul(value));
    } else if (key == "--interval-instr") {
      opt.interval_instructions = std::stoull(value);
    } else if (key == "--threads") {
      opt.threads = static_cast<ThreadId>(std::stoul(value));
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--jobs") {
      opt.jobs = static_cast<unsigned>(std::stoul(value));
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else if (key == "--reps") {
      opt.reps = static_cast<std::uint32_t>(std::stoul(value));
    } else if (key == "--warmup") {
      opt.warmup = static_cast<std::uint32_t>(std::stoul(value));
    } else if (key == "--out") {
      opt.out = value;
    } else if (key == "--check") {
      opt.check = value;
    } else if (key == "--tolerance") {
      opt.tolerance = std::stod(value);
    } else {
      std::fprintf(stderr, "unknown flag: %.*s\n",
                   static_cast<int>(key.size()), key.data());
      usage_and_exit();
    }
  }
  if (opt.reps == 0) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    usage_and_exit();
  }
  return opt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bench::BenchOptions to_bench_options(const Options& opt) {
  bench::BenchOptions bopt;
  bopt.intervals = opt.intervals;
  bopt.interval_instructions = opt.interval_instructions;
  bopt.threads = opt.threads;
  bopt.seed = opt.seed;
  bopt.jobs = opt.jobs;
  bopt.trace_dir = opt.trace_dir;
  return bopt;
}

/// The resolve stage, isolated: acquires every profile's spool entries
/// (generating + resolving whatever is missing) and returns the pass's wall
/// seconds. After this the measured reps below are pure replay, so the
/// JSON's resolve_seconds / replay serial_seconds split attributes the two
/// stages honestly. On a warm spool this is just open+verify cost. Returns
/// 0 when spooling is off (stages are not separable in live-generator mode).
double warm_spool_stage(const Options& opt) {
  if (opt.trace_dir.empty()) return 0.0;
  const bench::BenchOptions bopt = to_bench_options(opt);
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& profile : trace::benchmark_names()) {
    sim::ExperimentConfig cfg = bench::base_config(bopt, profile);
    const Instructions per_thread =
        cfg.interval_instructions * cfg.num_intervals / cfg.num_threads;
    (void)sim::spool_sources(cfg, per_thread);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One mechanism's measurement: the full fig19-21 arm union under `kind`,
/// repeated warmup+reps times. `batch` keeps the first measured rep (the
/// per-arm results; later reps are asserted identical and only timed).
struct KindRun {
  mem::IndexKind kind;
  sim::BatchResult batch;
  std::vector<double> rep_seconds;  // serial-equivalent, measured reps only
  double median_seconds = 0.0;
  std::uint64_t accesses = 0;
};

double serial_seconds_of(const sim::BatchResult& batch,
                         mem::IndexKind kind) {
  double total = 0.0;
  for (const sim::ArmOutcome& arm : batch.arms) {
    if (!arm.ok()) {
      std::fprintf(stderr, "arm %s failed under %s: %s\n", arm.name.c_str(),
                   std::string(mem::to_string(kind)).c_str(),
                   arm.error.c_str());
      std::exit(1);
    }
    total += arm.wall_seconds;
  }
  return total;
}

/// Exact-equality check between two batches of the same spec; `what` labels
/// the axis being compared (index mechanism, repetition) in the message.
bool batches_identical(const sim::BatchResult& a, const sim::BatchResult& b,
                       const char* what) {
  bool ok = true;
  for (std::size_t i = 0; i < a.arms.size(); ++i) {
    const sim::ArmOutcome& x = a.arms[i];
    const sim::ArmOutcome& y = b.arms[i];
    const mem::ThreadCacheCounters tx = x.result.l2_stats.total();
    const mem::ThreadCacheCounters ty = y.result.l2_stats.total();
    if (x.name != y.name ||
        x.result.outcome.total_cycles != y.result.outcome.total_cycles ||
        x.result.outcome.instructions_retired !=
            y.result.outcome.instructions_retired ||
        tx.accesses != ty.accesses || tx.hits != ty.hits ||
        tx.misses != ty.misses || tx.writebacks != ty.writebacks) {
      std::fprintf(
          stderr,
          "BIT-IDENTITY VIOLATION (%s) at arm %s: cycles %llu vs %llu, "
          "accesses %llu vs %llu\n",
          what, x.name.c_str(),
          static_cast<unsigned long long>(x.result.outcome.total_cycles),
          static_cast<unsigned long long>(y.result.outcome.total_cycles),
          static_cast<unsigned long long>(tx.accesses),
          static_cast<unsigned long long>(ty.accesses));
      ok = false;
    }
  }
  return ok;
}

KindRun run_kind(const Options& opt, mem::IndexKind kind) {
  bench::BenchOptions bopt = to_bench_options(opt);
  bopt.l2_index = kind;
  const std::vector<std::string> arms = {"model", "static_equal", "shared",
                                         "throughput"};
  const sim::ExperimentSpec spec = bench::profile_sweep(
      bopt, trace::benchmark_names(), arms,
      std::string("hotpath_") + std::string(mem::to_string(kind)));

  KindRun run;
  run.kind = kind;
  const sim::BatchRunner runner(opt.jobs);
  for (std::uint32_t r = 0; r < opt.warmup + opt.reps; ++r) {
    sim::BatchResult batch = runner.run(spec);
    const double seconds = serial_seconds_of(batch, kind);
    if (r < opt.warmup) continue;
    run.rep_seconds.push_back(seconds);
    if (run.batch.arms.empty()) {
      run.batch = std::move(batch);
    } else if (!batches_identical(run.batch, batch, "across reps")) {
      std::exit(1);
    }
  }
  run.median_seconds = median(run.rep_seconds);
  for (const sim::ArmOutcome& arm : run.batch.arms) {
    run.accesses += arm.result.l2_stats.total().accesses;
  }
  return run;
}

void write_kind(obs::JsonWriter& w, const KindRun& run) {
  w.begin_object()
      .key("index")
      .value(mem::to_string(run.kind))
      .key("serial_seconds")
      .value(run.median_seconds)
      .key("rep_seconds")
      .begin_array();
  for (const double s : run.rep_seconds) w.value(s);
  w.end_array()
      .key("accesses")
      .value(run.accesses)
      .key("accesses_per_sec")
      .value(run.median_seconds > 0.0
                 ? static_cast<double>(run.accesses) / run.median_seconds
                 : 0.0)
      .key("arms")
      .begin_array();
  for (const sim::ArmOutcome& arm : run.batch.arms) {
    w.begin_object()
        .key("name")
        .value(arm.name)
        .key("wall_seconds")
        .value(arm.wall_seconds)
        .key("accesses")
        .value(arm.result.l2_stats.total().accesses)
        .end_object();
  }
  w.end_array().end_object();
}

/// Reads `path`'s speedup_hash_over_scan; exits on parse failure.
double baseline_speedup(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = obs::parse_json(buf.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "baseline %s is not valid JSON: %s\n", path.c_str(),
                 error.c_str());
    std::exit(1);
  }
  const obs::JsonValue* speedup = doc->find("speedup_hash_over_scan");
  if (speedup == nullptr || !speedup->is_number()) {
    std::fprintf(stderr, "baseline %s lacks speedup_hash_over_scan\n",
                 path.c_str());
    std::exit(1);
  }
  return speedup->as_double();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::printf(
      "capart_perfsmoke: fig19-21 arm union, scan vs hash tag lookup\n"
      "  intervals=%u threads=%u seed=%llu jobs=%u "
      "reps=%u warmup=%u spool=%s simd=%s\n",
      opt.intervals, static_cast<unsigned>(opt.threads),
      static_cast<unsigned long long>(opt.seed), opt.jobs, opt.reps,
      opt.warmup, opt.trace_dir.empty() ? "off" : opt.trace_dir.c_str(),
      std::string(mem::simd::backend_name()).c_str());

  const double resolve_seconds = warm_spool_stage(opt);
  if (!opt.trace_dir.empty()) {
    std::printf("  resolve stage (spool acquire, all profiles): %.2fs\n",
                resolve_seconds);
  }

  const KindRun scan = run_kind(opt, mem::IndexKind::kScan);
  const KindRun hash = run_kind(opt, mem::IndexKind::kHash);
  if (!batches_identical(scan.batch, hash.batch, "scan vs hash")) return 1;

  const double speedup = hash.median_seconds > 0.0
                             ? scan.median_seconds / hash.median_seconds
                             : 0.0;
  for (const KindRun* run : {&scan, &hash}) {
    std::printf("  %s: median %.2fs serial over %zu reps (%.3g accesses/s)"
                " [reps:",
                std::string(mem::to_string(run->kind)).c_str(),
                run->median_seconds, run->rep_seconds.size(),
                static_cast<double>(run->accesses) / run->median_seconds);
    for (const double s : run->rep_seconds) std::printf(" %.2f", s);
    std::printf("]\n");
  }
  std::printf("  speedup (hash over scan, medians): %.2fx\n", speedup);

  obs::JsonWriter w;
  w.begin_object()
      .key("bench")
      .value("hotpath")
      .key("intervals")
      .value(opt.intervals)
      .key("threads")
      .value(static_cast<std::uint32_t>(opt.threads))
      .key("seed")
      .value(opt.seed)
      .key("jobs")
      .value(opt.jobs)
      .key("trace_spool")
      .value(!opt.trace_dir.empty())
      .key("simd_backend")
      .value(mem::simd::backend_name())
      .key("resolve_seconds")
      .value(resolve_seconds)
      .key("reps")
      .value(opt.reps)
      .key("warmup")
      .value(opt.warmup)
      .key("bit_identical")
      .value(true)
      .key("speedup_hash_over_scan")
      .value(speedup)
      .key("kinds")
      .begin_array();
  write_kind(w, scan);
  write_kind(w, hash);
  w.end_array().end_object();

  std::ofstream out(opt.out, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  out << w.str() << '\n';
  out.close();
  std::printf("  wrote %s\n", opt.out.c_str());

  if (!opt.check.empty()) {
    const double base = baseline_speedup(opt.check);
    const double floor = base * (1.0 - opt.tolerance);
    std::printf(
        "  baseline speedup %.2fx, tolerance %.0f%% -> floor %.2fx: %s\n",
        base, opt.tolerance * 100.0, floor,
        speedup >= floor ? "ok" : "REGRESSION");
    if (speedup < floor) {
      std::fprintf(stderr,
                   "perf regression: hash-over-scan median speedup %.2fx fell "
                   "below %.2fx (baseline %.2fx - %.0f%%)\n",
                   speedup, floor, base, opt.tolerance * 100.0);
      return 1;
    }
  }
  return 0;
}
