#include "src/sim/coschedule.hpp"

#include "src/common/check.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/sim/cmp_system.hpp"
#include "src/sim/driver.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/benchmarks.hpp"

namespace capart::sim {

CoScheduleResult run_coscheduled(const CoScheduleConfig& config) {
  CAPART_CHECK(!config.apps.empty(), "coschedule: need at least one app");
  if (config.num_intervals < 1 || config.interval_instructions < 1 ||
      config.num_intervals > ~Instructions{0} / config.interval_instructions) {
    throw ConfigError("intervals", "coschedule: intervals x interval "
                                   "instructions must be positive and fit "
                                   "64 bits");
  }

  ThreadId total_threads = 0;
  for (const CoScheduledApp& app : config.apps) {
    CAPART_CHECK(app.num_threads >= 1, "coschedule: empty application");
    total_threads += app.num_threads;
  }

  SystemConfig sys_config;
  sys_config.num_threads = total_threads;
  sys_config.l1 = config.l1;
  sys_config.l2 = config.l2;
  sys_config.l2_mode = config.l2_mode;
  sys_config.timing = config.timing;
  CmpSystem system(sys_config);

  // Generators: each app gets its own shared region; private regions are
  // per global thread as usual.
  const Rng root(config.seed);
  std::vector<std::unique_ptr<trace::OpSource>> generators;
  std::vector<std::uint32_t> barrier_groups(total_threads, 0);
  std::vector<core::AppSpec> app_specs;
  std::vector<std::vector<ThreadId>> app_threads;
  ThreadId next = 0;
  for (std::size_t a = 0; a < config.apps.size(); ++a) {
    const CoScheduledApp& app = config.apps[a];
    const trace::BenchmarkProfile profile =
        trace::make_profile(app.profile, app.num_threads);
    core::AppSpec spec;
    std::vector<ThreadId> threads;
    for (ThreadId local = 0; local < app.num_threads; ++local) {
      const ThreadId global = next++;
      generators.push_back(std::make_unique<trace::PhasedGenerator>(
          trace::PhaseSchedule(profile.threads[local].phases),
          root.fork(global), private_region_base(global),
          shared_region_base() + (static_cast<Addr>(a) << 40)));
      barrier_groups[global] = static_cast<std::uint32_t>(a);
      spec.threads.push_back(global);
      threads.push_back(global);
    }
    app_specs.push_back(std::move(spec));
    app_threads.push_back(std::move(threads));
  }

  const Instructions per_thread =
      config.interval_instructions * config.num_intervals / total_threads;
  Program program =
      make_uniform_program(total_threads, config.sections, per_thread);

  DriverConfig driver_config;
  driver_config.interval_instructions = config.interval_instructions;
  driver_config.barrier_release_cost = config.barrier_release_cost;
  driver_config.barrier_group = barrier_groups;
  Driver driver(system, std::move(program), std::move(generators),
                driver_config);

  std::vector<std::unique_ptr<core::PartitionPolicy>> policies;
  for (const CoScheduledApp& app : config.apps) {
    // The hierarchical runtime needs a policy object per app; "none"
    // degrades to a static equal split of the app's share.
    const std::string_view name = core::is_no_policy(app.policy)
                                      ? std::string_view("static-equal")
                                      : std::string_view(app.policy);
    policies.push_back(
        core::registry().make(name, app.policy_options, "apps.policy"));
  }
  core::HierarchicalRuntime runtime(system, std::move(app_specs),
                                    std::move(policies), config.os_mode,
                                    config.os_period_intervals,
                                    config.runtime_overhead_cycles);
  driver.set_interval_callback(runtime.callback());

  CoScheduleResult result;
  result.outcome = driver.run();
  result.intervals = runtime.history();
  result.final_app_shares.assign(runtime.app_shares().begin(),
                                 runtime.app_shares().end());
  result.app_threads = std::move(app_threads);
  result.app_cycles.reserve(config.apps.size());
  for (const auto& threads : result.app_threads) {
    Cycles finish = 0;
    for (ThreadId t : threads) {
      const auto& c = system.counters().thread(t);
      finish = std::max(finish, c.exec_cycles + c.stall_cycles);
    }
    result.app_cycles.push_back(finish);
  }
  return result;
}

}  // namespace capart::sim
