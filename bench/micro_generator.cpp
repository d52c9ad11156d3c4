// Engineering micro-benchmark (google-benchmark): the stack-distance
// generator's cost per op, which a streamed run's producer pays for every op
// it resolves. One generator per role archetype at cg's parameters (cg's
// four threads: critical, streamer, worker, light) fills 256-op batches, as
// the streamed resolve does; its draw tables are built, and a warm-up has
// grown its LRU stack toward the working set, before any timing. A second
// benchmark times building the draw tables of cg's critical phase.
//
//   ./build/bench/micro_generator
//
// per_op is the fill time per generated op. depth_table_bytes and
// depth_libm_share describe the role's reuse-depth table: its size, and the
// share of depth draws it leaves to pow (values above its cap, and draws
// that share a threshold's stored bits).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "src/common/rng.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/draw_table.hpp"
#include "src/trace/phase.hpp"

namespace {

using namespace capart;

/// cg's thread index of each role archetype (trace/benchmarks.cpp).
enum Role : std::size_t { kCritical = 0, kStreamer = 1, kWorker = 2, kLight = 3 };

constexpr std::size_t kFillOps = 256;
constexpr int kWarmupFills = 4096;

const trace::ThreadSpec& cg_thread(Role role) {
  static const trace::BenchmarkProfile cg = trace::make_profile("cg", 4);
  return cg.threads[role];
}

/// Share of lattice indices `table` leaves to libm, from a fixed sample.
double libm_share(const trace::ThresholdTable* table) {
  if (table == nullptr) return 1.0;
  constexpr int kSamples = 1 << 20;
  Rng rng(5);
  int declined = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (table->lookup(rng.lattice()) == trace::ThresholdTable::kUndecided) {
      ++declined;
    }
  }
  return static_cast<double>(declined) / kSamples;
}

void BM_GeneratorFill(benchmark::State& state, Role role) {
  const trace::ThreadSpec& spec = cg_thread(role);
  trace::PhasedGenerator generator(trace::PhaseSchedule(spec.phases),
                                   Rng(42).fork(1), Addr{1} << 40,
                                   Addr{1} << 50);
  std::array<trace::NextOp, kFillOps> ops;
  for (int i = 0; i < kWarmupFills; ++i) generator.fill(ops.data(), ops.size());
  std::uint64_t generated = 0;
  for (auto _ : state) {
    generated += generator.fill(ops.data(), ops.size());
    benchmark::DoNotOptimize(ops.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_op"] = benchmark::Counter(
      static_cast<double>(generated),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  const trace::DrawTables tables =
      trace::DrawTableRegistry::process().tables(spec.phases.front().params);
  state.counters["depth_table_bytes"] = static_cast<double>(
      tables.depth != nullptr ? tables.depth->bytes() : 0);
  state.counters["depth_libm_share"] = libm_share(tables.depth);
}
BENCHMARK_CAPTURE(BM_GeneratorFill, critical, kCritical);
BENCHMARK_CAPTURE(BM_GeneratorFill, streamer, kStreamer);
BENCHMARK_CAPTURE(BM_GeneratorFill, worker, kWorker);
BENCHMARK_CAPTURE(BM_GeneratorFill, light, kLight);

void BM_ThresholdTableBuild(benchmark::State& state) {
  const trace::DrawParams params(cg_thread(kCritical).phases.front().params);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto gap = trace::make_gap_table(params);
    const auto depth = trace::make_depth_table(params);
    const auto shared = trace::make_shared_table(params);
    bytes = gap->bytes() + depth->bytes() + shared->bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["table_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ThresholdTableBuild)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
