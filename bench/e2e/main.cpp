// capart_bench command line. See README.md for the workloads and metrics.
//
//   capart_bench --workload=NAME [--seed=N] [--seconds=S] [--out=PATH]
//                [--trace=PATH] [--workdir=DIR] [--expected-dir=DIR]
//                [--write-expected]
//   capart_bench --smoke [--write-expected] [--workdir=DIR]
//   capart_bench compare PARENT_DIR CHANGE_DIR
//   capart_bench history RESULTS_DIR [--label=TEXT]
//
// A run prints every metric by name with its unit, then, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or the per-layer metrics when traced. It exits 1 when
// any arm's outputs were wrong and 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "src/common/error.hpp"
#include "src/common/parse.hpp"

namespace {

using namespace capart;
using namespace capart::e2e;

[[noreturn]] void usage(const char* message) {
  std::fprintf(
      stderr,
      "%s\n"
      "usage: capart_bench --workload=NAME [--seed=N] [--seconds=S]\n"
      "                    [--out=PATH] [--trace=PATH] [--workdir=DIR]\n"
      "                    [--expected-dir=DIR] [--write-expected]\n"
      "       capart_bench --smoke [--write-expected] [--workdir=DIR]\n"
      "       capart_bench compare PARENT_DIR CHANGE_DIR\n"
      "       capart_bench history RESULTS_DIR [--label=TEXT]\n"
      "workloads: fig19_21_live fig19_21_spool zoo_parallel clos_32t\n",
      message);
  std::exit(2);
}

std::string default_workdir() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string("capart_bench_work")
            : (exe.parent_path() / "work").string();
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int run_one(const RunOptions& opt) {
  const RunResult r = run_workload(opt);
  std::printf("capart_bench %s seed=%llu sweeps=%zu interval samples=%zu "
              "(tail = p%g)\n",
              r.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              r.sweeps, r.interval_samples, r.tail_pct);
  const std::string mismatch =
      r.mismatch.empty() ? "" : "; first mismatch: " + r.mismatch;
  std::printf("  outputs: %s, %llu of %llu arm runs failed%s%s\n",
              r.correct ? "correct" : "WRONG",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              r.expected_checked ? ", committed digests checked"
                                 : ", run-to-run and cross-path checked",
              mismatch.c_str());
  print_metrics("end-to-end:", r.end_to_end);
  const bool traced = !opt.trace_path.empty();
  if (traced) print_metrics("per-layer:", r.layers);
  if (!opt.out.empty()) write_result_json(opt.out, opt, r);
  std::printf("%s\n", contract_line(r, traced).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

int run_smoke(RunOptions opt) {
  opt.scale = Scale::kSmoke;
  opt.seed = 42;
  bool ok = true;
  for (const std::string& name : workload_names()) {
    opt.workload = name;
    const RunResult r = run_workload(opt);
    const bool pass = r.correct && (r.expected_checked || opt.write_expected);
    ok = ok && pass;
    double wall = 0.0;
    for (const Metric& m : r.end_to_end) {
      if (m.name == "wall_s") wall = m.value;
    }
    std::printf("smoke %-16s %s  wall %.3fs  %s\n", name.c_str(),
                pass ? "ok  " : "FAIL", wall,
                !r.mismatch.empty()      ? r.mismatch.c_str()
                : r.expected_checked     ? "digests match"
                : opt.write_expected     ? "digests written"
                                         : "no committed smoke digests");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "compare") {
    if (args.size() != 3) usage("compare takes PARENT_DIR CHANGE_DIR");
    return compare_main(args[1], args[2]);
  }
  if (!args.empty() && args[0] == "history") {
    if (args.size() < 2 || args.size() > 3) usage("history takes RESULTS_DIR");
    std::string label = "unlabelled";
    if (args.size() == 3) {
      if (args[2].rfind("--label=", 0) != 0) usage("history: unknown flag");
      label = args[2].substr(8);
    }
    return history_main(args[1], label);
  }

  RunOptions opt;
  opt.workdir = default_workdir();
  opt.expected_dir = CAPART_BENCH_EXPECTED_DIR;
  bool smoke = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string key = args[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    const auto need_value = [&]() -> const std::string& {
      if (eq == std::string::npos) {
        if (i + 1 >= args.size()) usage(("missing value for " + key).c_str());
        value = args[++i];
      }
      return value;
    };
    if (key == "--workload") {
      opt.workload = need_value();
    } else if (key == "--seed") {
      opt.seed = parse_u64_flag(need_value(), "--seed");
    } else if (key == "--seconds") {
      opt.seconds = parse_f64_flag(need_value(), "--seconds");
      if (!(opt.seconds >= 0.0)) usage("--seconds must be >= 0");
    } else if (key == "--out") {
      opt.out = need_value();
    } else if (key == "--trace") {
      opt.trace_path = need_value();
    } else if (key == "--workdir") {
      opt.workdir = need_value();
    } else if (key == "--expected-dir") {
      opt.expected_dir = need_value();
    } else if (key == "--write-expected" && eq == std::string::npos) {
      opt.write_expected = true;
    } else if (key == "--smoke" && eq == std::string::npos) {
      smoke = true;
    } else if (key == "--help" || key == "-h") {
      usage("capart_bench: end-to-end and per-layer simulator benchmark");
    } else {
      usage(("unknown flag: " + args[i]).c_str());
    }
  }
  if (smoke) return run_smoke(opt);
  if (opt.workload.empty()) usage("--workload is required");
  return run_one(opt);
} catch (const ConfigError& error) {
  std::fprintf(stderr, "capart_bench: %s\n", error.what());
  return 2;
} catch (const std::exception& error) {
  std::fprintf(stderr, "capart_bench: %s\n", error.what());
  return 1;
}
