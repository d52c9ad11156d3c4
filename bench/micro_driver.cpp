// Engineering micro-benchmark (google-benchmark): cost of one driver step,
// the pick of the runnable thread with the smallest (clock, tid) plus the
// op it then executes. Every thread replays pre-resolved ops from memory —
// mostly L1 hits, the rest shared-L2 hits in a small per-thread working
// set — over a one-bank shared L2 without bank contention, so the cache
// work per step stays small and the scheduler's share of it shows. The
// program has barriers and interval boundaries, as real runs do.
//
//   ./build/bench/micro_driver --benchmark_filter=BM_DriverStep
//
// per_step is the driver's run time over the steps that retired an
// access; setup and teardown (caches, sources, rings) are not timed.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/cmp_system.hpp"
#include "src/sim/driver.hpp"
#include "src/sim/program.hpp"
#include "src/trace/op_source.hpp"

namespace {

using namespace capart;

/// Aggregate instructions per driver run, whatever the thread count.
constexpr Instructions kInstructionsPerRun = Instructions{1} << 19;

/// One thread's stream: a fixed op pattern, cycled from a per-thread offset
/// and moved into the thread's own address region.
class CyclingSource final : public trace::OpSource {
 public:
  CyclingSource(const std::vector<trace::NextOp>& ops, ThreadId t)
      : ops_(ops), pos_(t * 977u % ops.size()), base_((Addr{t} + 1) << 40) {}

  trace::NextOp next() override {
    trace::NextOp op = ops_[pos_];
    op.addr += base_;
    pos_ = pos_ + 1 == ops_.size() ? 0 : pos_ + 1;
    return op;
  }

  std::size_t fill(trace::NextOp* out, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = next();
    return n;
  }

 private:
  const std::vector<trace::NextOp>& ops_;
  std::size_t pos_;
  Addr base_;
};

/// Gaps of 0-3 instructions; one op in eight reaches the shared L2, within
/// 64 blocks per thread, so even 128 threads fit the 16 K-line L2.
std::vector<trace::NextOp> resolved_ops() {
  Rng rng(7);
  std::vector<trace::NextOp> ops(4096);
  for (trace::NextOp& op : ops) {
    op.gap = rng.below(4);
    op.addr = rng.below(64) * 64;
    op.resolved = rng.below(8) == 0 ? trace::ResolvedLevel::kShared
                                    : trace::ResolvedLevel::kL1Hit;
  }
  return ops;
}

void BM_DriverStep(benchmark::State& state) {
  const auto threads = static_cast<ThreadId>(state.range(0));
  const std::vector<trace::NextOp> ops = resolved_ops();
  sim::SystemConfig system_config;
  system_config.num_threads = threads;
  system_config.l2 = {.sets = 256, .ways = 64, .line_bytes = 64};
  system_config.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  sim::DriverConfig driver_config;
  driver_config.interval_instructions = kInstructionsPerRun / 8;
  std::uint64_t steps = 0;
  std::unique_ptr<sim::CmpSystem> system;
  std::unique_ptr<sim::Driver> driver;
  for (auto _ : state) {
    state.PauseTiming();
    driver.reset();
    system = std::make_unique<sim::CmpSystem>(system_config);
    std::vector<std::unique_ptr<trace::OpSource>> sources;
    for (ThreadId t = 0; t < threads; ++t) {
      sources.push_back(std::make_unique<CyclingSource>(ops, t));
    }
    driver = std::make_unique<sim::Driver>(
        *system,
        sim::make_uniform_program(threads, 4, kInstructionsPerRun / threads),
        std::move(sources), driver_config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(driver->run());
    for (ThreadId t = 0; t < threads; ++t) {
      steps += system->counters().thread(t).l1_accesses;
    }
  }
  state.counters["per_step"] = benchmark::Counter(
      static_cast<double>(steps),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DriverStep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
