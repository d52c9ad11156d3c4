// Engineering micro-benchmarks (google-benchmark): cost of the hot cache
// paths, since the simulator's throughput bounds every experiment above.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/block_index.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/replacement.hpp"
#include "src/mem/simd.hpp"

namespace {

using namespace capart;

/// A private-hierarchy cache: single-thread, unpartitioned.
mem::CacheCore private_cache() {
  return mem::CacheCore({.sets = 256, .ways = 8, .line_bytes = 64}, 1,
                        mem::PartitionEnforcement::kNone);
}

void BM_SetAssocHit(benchmark::State& state) {
  mem::CacheCore cache = private_cache();
  cache.access(0, 0, AccessType::kRead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, 0, AccessType::kRead));
  }
}
BENCHMARK(BM_SetAssocHit);

void BM_SetAssocMissStream(benchmark::State& state) {
  mem::CacheCore cache = private_cache();
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, addr, AccessType::kRead));
    addr += 64;
  }
}
BENCHMARK(BM_SetAssocMissStream);

/// The shared L2 as the simulator builds it, for 4 threads.
std::unique_ptr<mem::L2Organization> shared_l2(
    mem::L2Mode mode, const mem::CacheGeometry& geometry) {
  return mem::make_l2(mode, geometry, 4);
}

void random_misses(benchmark::State& state, mem::L2Organization& l2) {
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    benchmark::DoNotOptimize(
        l2.access(tid, rng.below(1u << 24) * 64, AccessType::kRead));
  }
}

void BM_PartitionedHit(benchmark::State& state) {
  const auto ways = static_cast<std::uint32_t>(state.range(0));
  const auto l2 = shared_l2(mem::L2Mode::kPartitionedShared,
                            {.sets = 256, .ways = ways, .line_bytes = 64});
  l2->access(0, 0, AccessType::kRead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2->access(0, 0, AccessType::kRead));
  }
}
BENCHMARK(BM_PartitionedHit)->Arg(16)->Arg(64);

void BM_PartitionedMissEvictionControl(benchmark::State& state) {
  const auto ways = static_cast<std::uint32_t>(state.range(0));
  const auto l2 = shared_l2(mem::L2Mode::kPartitionedShared,
                            {.sets = 256, .ways = ways, .line_bytes = 64});
  random_misses(state, *l2);
}
BENCHMARK(BM_PartitionedMissEvictionControl)->Arg(16)->Arg(64);

void BM_PartitionedMissGlobalLru(benchmark::State& state) {
  const auto l2 = shared_l2(mem::L2Mode::kSharedUnpartitioned,
                            {.sets = 256, .ways = 64, .line_bytes = 64});
  random_misses(state, *l2);
}
BENCHMARK(BM_PartitionedMissGlobalLru);

// Per-access cost per replacement policy, hit and miss paths, at the
// paper's 64-way shared-L2 associativity. Arg 0 selects the policy
// (0 = lru, 1 = plru, 2 = srrip). The LRU miss path is the number to watch:
// it used to rescan 64 per-line stamps per victim search; the recency
// permutation finds the victim without the stamp scan.
mem::CacheGeometry repl_geometry(std::int64_t arg) {
  return {.sets = 256,
          .ways = 64,
          .line_bytes = 64,
          .repl = mem::kAllReplacementKinds[static_cast<std::size_t>(arg)]};
}

void repl_arg_name(benchmark::internal::Benchmark* b) {
  b->ArgNames({"repl"})->Arg(0)->Arg(1)->Arg(2);
}

void BM_ReplacementHit(benchmark::State& state) {
  const auto l2 = shared_l2(mem::L2Mode::kPartitionedShared,
                            repl_geometry(state.range(0)));
  l2->access(0, 0, AccessType::kRead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2->access(0, 0, AccessType::kRead));
  }
}
BENCHMARK(BM_ReplacementHit)->Apply(repl_arg_name);

void BM_ReplacementMissEvictionControl(benchmark::State& state) {
  const auto l2 = shared_l2(mem::L2Mode::kPartitionedShared,
                            repl_geometry(state.range(0)));
  random_misses(state, *l2);
}
BENCHMARK(BM_ReplacementMissEvictionControl)->Apply(repl_arg_name);

void BM_ReplacementMissGlobal(benchmark::State& state) {
  const auto l2 = shared_l2(mem::L2Mode::kSharedUnpartitioned,
                            repl_geometry(state.range(0)));
  random_misses(state, *l2);
}
BENCHMARK(BM_ReplacementMissGlobal)->Apply(repl_arg_name);

// The two tag lookups head to head, outside any cache: the linear scan over
// a set's tag array (simd::find_tag) and the block->way hash index
// (BlockWayIndex::lookup). Args: {ways, lookup} with lookup 0 = scan,
// 1 = index, over 256 full sets. The hit path finds resident blocks; the
// miss path proves a block absent and then replaces a line, which the index
// must mirror (erase + insert) while the scan only rewrites a tag — the
// maintenance every eviction-control miss pays. use_block_index's 16-way
// crossover comes from these numbers.
constexpr std::uint32_t kLookupSets = 256;

void lookup_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"ways", "lookup"});
  for (std::int64_t ways : {4, 8, 16, 32, 64}) {
    b->Args({ways, 0});
    b->Args({ways, 1});
  }
}

/// Full sets of distinct random blocks, as a tag array and as an index.
struct ResidentSets {
  explicit ResidentSets(std::uint32_t w)
      : ways(w),
        tags(std::size_t{kLookupSets} * w),
        index(kLookupSets, w) {
    Rng rng(7);
    for (std::uint32_t s = 0; s < kLookupSets; ++s) {
      for (std::uint32_t way = 0; way < ways; ++way) {
        // Distinct within a set: the way number occupies the low bits.
        const std::uint64_t block = (rng.below(1u << 20) << 8) | way;
        tags[std::size_t{s} * ways + way] = block;
        index.insert(s, block, way);
      }
    }
  }

  std::uint32_t scan(std::uint32_t set, std::uint64_t block) const {
    return mem::simd::find_tag(&tags[std::size_t{set} * ways], ways, block);
  }

  std::uint32_t ways;
  std::vector<std::uint64_t> tags;
  mem::BlockWayIndex index;
};

void BM_IndexHit(benchmark::State& state) {
  const ResidentSets sets(static_cast<std::uint32_t>(state.range(0)));
  const bool use_index = state.range(1) != 0;
  Rng rng(3);
  std::vector<std::uint32_t> probe_sets(1024);
  std::vector<std::uint64_t> probe_blocks(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    probe_sets[i] = static_cast<std::uint32_t>(rng.below(kLookupSets));
    probe_blocks[i] = sets.tags[std::size_t{probe_sets[i]} * sets.ways +
                                rng.below(sets.ways)];
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        use_index ? sets.index.lookup(probe_sets[i], probe_blocks[i])
                  : sets.scan(probe_sets[i], probe_blocks[i]));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_IndexHit)->Apply(lookup_args);

void BM_IndexMissEvictionControl(benchmark::State& state) {
  ResidentSets sets(static_cast<std::uint32_t>(state.range(0)));
  const bool use_index = state.range(1) != 0;
  Rng rng(1);
  std::uint64_t fresh = std::uint64_t{1} << 40;  // never resident yet
  for (auto _ : state) {
    const auto set = static_cast<std::uint32_t>(rng.below(kLookupSets));
    const auto way = static_cast<std::uint32_t>(rng.below(sets.ways));
    const std::uint64_t block = fresh++;
    std::uint64_t& tag = sets.tags[std::size_t{set} * sets.ways + way];
    if (use_index) {
      benchmark::DoNotOptimize(sets.index.lookup(set, block));
      sets.index.erase(set, tag);
      sets.index.insert(set, block, way);
    } else {
      benchmark::DoNotOptimize(sets.scan(set, block));
    }
    tag = block;
  }
}
BENCHMARK(BM_IndexMissEvictionControl)->Apply(lookup_args);

// Full hot-path matrix at the paper's 64-way L2: replacement policy x
// enforcement mode over a mixed hit/miss random stream (~25% hits). Args:
// {repl, enforce}. kSetColoring drives access_in_set directly — the
// coloring organization's own block->set mapping is not what is being
// measured.
constexpr mem::PartitionEnforcement kAllEnforcements[] = {
    mem::PartitionEnforcement::kNone,
    mem::PartitionEnforcement::kWayEvictionControl,
    mem::PartitionEnforcement::kWayFlushReconfigure,
    mem::PartitionEnforcement::kSetColoring,
};

void hot_path_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"repl", "enforce"});
  for (std::int64_t repl = 0; repl < 3; ++repl) {
    for (std::int64_t enforce = 0; enforce < 4; ++enforce) {
      b->Args({repl, enforce});
    }
  }
}

void BM_HotPath(benchmark::State& state) {
  const mem::CacheGeometry geometry = {
      .sets = 256,
      .ways = 64,
      .line_bytes = 64,
      .repl =
          mem::kAllReplacementKinds[static_cast<std::size_t>(state.range(0))]};
  const mem::PartitionEnforcement enforcement =
      kAllEnforcements[static_cast<std::size_t>(state.range(1))];
  mem::CacheCore core(geometry, 4, enforcement);
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    const std::uint64_t block = rng.below(1u << 16);
    if (enforcement == mem::PartitionEnforcement::kSetColoring) {
      benchmark::DoNotOptimize(core.access_in_set(
          tid, block, static_cast<std::uint32_t>(block & 255),
          AccessType::kRead));
    } else {
      benchmark::DoNotOptimize(
          core.access(tid, block * 64, AccessType::kRead));
    }
  }
}
BENCHMARK(BM_HotPath)->Apply(hot_path_args);

void BM_Retarget(benchmark::State& state) {
  const auto l2 = shared_l2(mem::L2Mode::kPartitionedShared,
                            {.sets = 256, .ways = 64, .line_bytes = 64});
  const std::vector<std::uint32_t> a = {32, 16, 8, 8};
  const std::vector<std::uint32_t> b = {16, 16, 16, 16};
  bool flip = false;
  for (auto _ : state) {
    l2->set_targets(flip ? a : b);
    flip = !flip;
  }
}
BENCHMARK(BM_Retarget);

}  // namespace

BENCHMARK_MAIN();
