// Ablation: hierarchical partitioning (paper §VI-C, Fig 16). Two
// applications are co-scheduled on one 4-core CMP (two threads each, own
// barrier domains). The OS level divides the 64 ways between the apps; each
// app's runtime applies the intra-application model-based scheme inside its
// share. Compared against a flat static-equal partition of the same system.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "src/common/error.hpp"
#include "src/report/table.hpp"
#include "src/sim/coschedule.hpp"

namespace {

using namespace capart;

sim::CoScheduleResult run_pair(const bench::BenchOptions& opt,
                               const std::string& policy,
                               core::OsAllocationMode os_mode) {
  sim::CoScheduleConfig cfg;
  cfg.apps = {
      sim::CoScheduledApp{.profile = "cg", .num_threads = 2, .policy = policy},
      sim::CoScheduledApp{.profile = "mgrid", .num_threads = 2,
                          .policy = policy},
  };
  cfg.os_mode = os_mode;
  cfg.num_intervals = opt.intervals;
  cfg.interval_instructions = opt.interval_instructions != 0
                                  ? opt.interval_instructions
                                  : Instructions{60'000} * 4;
  cfg.seed = opt.seed;
  return sim::run_coscheduled(cfg);
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::banner(
      "Ablation: hierarchical OS + runtime partitioning, cg + mgrid "
      "co-scheduled",
      opt);

  // Co-scheduled runs are not ExperimentConfig arms; the generic map of the
  // same executor fans them out with the same determinism guarantee.
  const sim::BatchRunner runner(bench::resolved_jobs(opt));
  std::vector<std::function<sim::CoScheduleResult()>> tasks;
  tasks.emplace_back([&opt] {
    return run_pair(opt, "none", core::OsAllocationMode::kStaticEqual);
  });
  tasks.emplace_back([&opt] {
    return run_pair(opt, "model-based", core::OsAllocationMode::kStaticEqual);
  });
  tasks.emplace_back([&opt] {
    return run_pair(opt, "model-based",
                    core::OsAllocationMode::kMissProportional);
  });
  const auto results = runner.map(std::move(tasks));
  const sim::CoScheduleResult& flat = results[0];
  const sim::CoScheduleResult& intra = results[1];
  const sim::CoScheduleResult& full = results[2];

  report::Table table({"configuration", "cg cycles", "mgrid cycles",
                       "cg vs flat", "mgrid vs flat"});
  auto pct = [](Cycles ours, Cycles base) {
    return report::fmt_pct(
        (static_cast<double>(base) - static_cast<double>(ours)) /
            static_cast<double>(base),
        1);
  };
  auto add = [&](const char* label, const sim::CoScheduleResult& r) {
    table.add_row({label, std::to_string(r.app_cycles[0]),
                   std::to_string(r.app_cycles[1]),
                   pct(r.app_cycles[0], flat.app_cycles[0]),
                   pct(r.app_cycles[1], flat.app_cycles[1])});
  };
  table.add_row({"flat static equal", std::to_string(flat.app_cycles[0]),
                 std::to_string(flat.app_cycles[1]), "-", "-"});
  add("OS equal + intra-app model", intra);
  add("OS miss-prop + intra-app model", full);
  table.print(std::cout);
  std::cout << "\n(paper Fig 16: the OS partitions among applications, the "
               "runtime partitions within each; both levels compose)\n";
  return bench::exit_status();
} catch (const Error& error) {
  // A configuration the co-scheduler rejects, e.g. --intervals=0.
  std::cerr << error.what() << '\n';
  return 1;
}
