// Trace record and replay: capture a live run's per-thread reference streams
// to files, then drive a fresh simulation from the files. This is the path
// for plugging in externally produced traces (e.g. Pin-derived) instead of
// the synthetic generators — the rest of the stack is unchanged.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/core/runtime_system.hpp"
#include "src/sim/cmp_system.hpp"
#include "src/sim/driver.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/trace_io.hpp"

int main() {
  using namespace capart;
  constexpr ThreadId kThreads = 4;
  const trace::BenchmarkProfile profile = trace::make_profile("cg", kThreads);
  const Instructions per_thread = 400'000;

  auto make_system = [] {
    return sim::CmpSystem(sim::SystemConfig{});  // paper Fig 2 defaults
  };
  auto run = [&](sim::CmpSystem& system,
                 std::vector<std::unique_ptr<trace::OpSource>> sources) {
    sim::DriverConfig cfg;
    cfg.interval_instructions = 240'000;
    sim::Driver driver(system, sim::make_uniform_program(kThreads, 8,
                                                         per_thread),
                       std::move(sources), cfg);
    core::RuntimeSystem runtime(system, core::registry().make("model-based"),
                                800);
    driver.set_interval_callback(runtime.callback());
    return driver.run();
  };

  // --- 1. Live run, recording each thread's stream --------------------------
  // The recorders live here (outside the driver) so the captured streams
  // survive the run; the driver only receives thin forwarding sources.
  const Rng root(11);
  std::vector<std::unique_ptr<trace::PhasedGenerator>> inner;
  std::vector<std::unique_ptr<trace::TraceRecorder>> recorders;
  std::vector<std::unique_ptr<trace::OpSource>> recording;
  struct Forward final : trace::OpSource {
    explicit Forward(trace::OpSource& s) : source(s) {}
    trace::NextOp next() override { return source.next(); }
    trace::OpSource& source;
  };
  for (ThreadId t = 0; t < kThreads; ++t) {
    inner.push_back(std::make_unique<trace::PhasedGenerator>(
        trace::PhaseSchedule(profile.threads[t].phases), root.fork(t),
        sim::private_region_base(t), sim::shared_region_base()));
    recorders.push_back(std::make_unique<trace::TraceRecorder>(*inner[t]));
    recording.push_back(std::make_unique<Forward>(*recorders[t]));
  }
  sim::CmpSystem live_system = make_system();
  const sim::RunOutcome live = run(live_system, std::move(recording));

  // --- 2. Persist the traces -------------------------------------------------
  // Each file stores a key naming its stream; opening checks it, so a file
  // can never be replayed as some other thread's trace.
  std::vector<std::string> paths;
  std::vector<std::string> keys;
  for (ThreadId t = 0; t < kThreads; ++t) {
    paths.push_back("/tmp/capart_cg_thread" + std::to_string(t) + ".trc");
    keys.push_back("record_replay;profile=cg;seed=11;thread=" +
                   std::to_string(t));
    std::vector<trace::PackedOp> packed;
    packed.reserve(recorders[t]->recorded().size());
    for (const trace::NextOp& op : recorders[t]->recorded()) {
      packed.push_back(trace::pack_op(op));
    }
    trace::write_packed_trace_file(paths.back(), keys.back(), packed);
  }

  // --- 3. Replay from the files ----------------------------------------------
  // The mapped files must outlive the replays reading them.
  std::vector<std::unique_ptr<trace::MmapTraceFile>> files;
  std::vector<std::unique_ptr<trace::OpSource>> replaying;
  for (ThreadId t = 0; t < kThreads; ++t) {
    files.push_back(trace::MmapTraceFile::open(paths[t], keys[t]));
    replaying.push_back(std::make_unique<trace::PackedReplay>(
        files.back()->ops(), trace::PackedReplay::OnEnd::kLoop));
  }
  sim::CmpSystem replay_system = make_system();
  const sim::RunOutcome replay = run(replay_system, std::move(replaying));

  std::cout << "live run:   " << live.total_cycles << " cycles\n"
            << "replay run: " << replay.total_cycles << " cycles\n"
            << (live.total_cycles == replay.total_cycles
                    ? "bit-exact reproduction ✔\n"
                    : "MISMATCH ✘\n");
  for (const std::string& path : paths) {
    std::cout << "trace written: " << path << "\n";
    std::remove(path.c_str());
  }
  return live.total_cycles == replay.total_cycles ? 0 : 1;
}
