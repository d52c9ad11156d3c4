// Engineering micro-benchmark (google-benchmark): the stack-distance
// generator's cost per op, which a streamed run's producer pays for every op
// it resolves. One generator per role archetype at cg's parameters (cg's
// four threads: critical, streamer, worker, light), and swim's thread 0
// (swim_sensitive: 8,000 <-> 2,500 blocks, a non-critical role that reaches
// the LRU stack's deep tier and shrinks once per phase cycle), fills 256-op
// batches, as the streamed resolve does; its draw tables are built, and a
// warm-up has grown its LRU stack toward the working set, before any
// timing. BM_RecencyStack times the LRU stack alone for cg's four roles,
// over reuse depths drawn before timing. A last benchmark times building
// the draw tables of cg's critical phase.
//
//   ./build/bench/micro_generator
//
// per_op is the time per generated op (per stack move for
// BM_RecencyStack). depth_table_bytes and depth_libm_share describe the
// role's reuse-depth table: its size, and the share of depth draws it
// leaves to pow (values above its cap, and draws that share a threshold's
// stored bits). deep_share is the share of reuses below the stack's top
// tier.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/draw_table.hpp"
#include "src/trace/phase.hpp"
#include "src/trace/recency_stack.hpp"

namespace {

using namespace capart;

/// cg's thread index of each role archetype (trace/benchmarks.cpp).
enum Role : std::size_t { kCritical = 0, kStreamer = 1, kWorker = 2, kLight = 3 };

constexpr std::size_t kFillOps = 256;
constexpr std::size_t kWarmupFills = 4096;

const trace::ThreadSpec& cg_thread(Role role) {
  static const trace::BenchmarkProfile cg = trace::make_profile("cg", 4);
  return cg.threads[role];
}

const trace::ThreadSpec& swim_thread0() {
  static const trace::BenchmarkProfile swim = trace::make_profile("swim", 4);
  return swim.threads[0];
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

void BM_GeneratorFill(benchmark::State& state,
                      const trace::ThreadSpec& spec) {
  trace::PhasedGenerator generator(trace::PhaseSchedule(spec.phases),
                                   Rng(42).fork(1), Addr{1} << 40,
                                   Addr{1} << 50);
  std::array<trace::NextOp, kFillOps> ops;
  for (std::size_t i = 0; i < kWarmupFills; ++i) {
    generator.fill(ops.data(), ops.size());
  }
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
BENCHMARK_CAPTURE(BM_GeneratorFill, critical, cg_thread(kCritical));
BENCHMARK_CAPTURE(BM_GeneratorFill, streamer, cg_thread(kStreamer));
BENCHMARK_CAPTURE(BM_GeneratorFill, worker, cg_thread(kWorker));
BENCHMARK_CAPTURE(BM_GeneratorFill, light, cg_thread(kLight));
BENCHMARK_CAPTURE(BM_GeneratorFill, swim_sensitive, swim_thread0());

void BM_RecencyStack(benchmark::State& state, Role role) {
  // The generator's private moves: a fresh block with p_new (the LRU one
  // drops first once the stack holds the working set), else a reuse at a
  // depth of the generator's law, fresh too when beyond the stack.
  const trace::GenParams& params = cg_thread(role).phases.front().params;
  const trace::DrawParams law(params);
  constexpr std::size_t kDepths = std::size_t{1} << 20;
  std::vector<std::uint32_t> depths(kDepths);
  Rng rng(42);
  double reuses = 0;
  double deep = 0;
  for (std::uint32_t& depth : depths) {
    depth = rng.chance(params.p_new)
                ? 0
                : static_cast<std::uint32_t>(trace::depth_of(rng.lattice(), law));
    reuses += depth >= 1 && depth <= params.working_set_blocks ? 1 : 0;
    deep += depth > trace::RecencyStack::kTopBlocks &&
                    depth <= params.working_set_blocks
                ? 1
                : 0;
  }
  trace::RecencyStack stack;
  stack.reserve(params.working_set_blocks);
  std::uint32_t next_block = 0;
  std::size_t at = 0;
  const auto move = [&] {
    const std::uint32_t depth = depths[at];
    at = (at + 1) % kDepths;
    if (depth >= 1 && depth <= stack.size()) {
      benchmark::DoNotOptimize(stack.touch(depth));
      return;
    }
    if (stack.size() >= params.working_set_blocks) stack.drop_lru(1);
    stack.push(next_block++);
  };
  for (std::size_t i = 0; i < kWarmupFills * kFillOps; ++i) move();
  std::uint64_t moved = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kFillOps; ++i) move();
    moved += kFillOps;
  }
  state.counters["per_op"] = benchmark::Counter(
      static_cast<double>(moved),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["deep_share"] = deep / reuses;
}
BENCHMARK_CAPTURE(BM_RecencyStack, critical, kCritical);
BENCHMARK_CAPTURE(BM_RecencyStack, streamer, kStreamer);
BENCHMARK_CAPTURE(BM_RecencyStack, worker, kWorker);
BENCHMARK_CAPTURE(BM_RecencyStack, light, kLight);

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
