// Synthetic memory-reference generator with controlled temporal locality.
//
// The paper's workloads are NAS/SPEC-OMP binaries run under Simics; we have
// no such traces, so each thread's reference stream is synthesized from a
// stack-distance model (see DESIGN.md, substitutions). The generator keeps an
// LRU stack of the thread's private blocks; each access either touches a
// brand-new block (streaming component) or re-touches the block at stack
// depth d, where d is drawn from a skew-controlled log-family distribution:
//
//   d = floor(W ^ (u ^ gamma)),  u ~ U[0,1)
//
// giving P(d <= k) = (ln k / ln W)^(1/gamma). Under LRU with effective
// capacity C blocks, the miss probability of a reuse is therefore about
// 1 - (ln C / ln W)^(1/gamma): smooth, monotonically decreasing and concave
// in C — the diminishing-returns miss curves real applications show, and the
// raw material from which the runtime fits its CPI-vs-ways models.
//
// A configurable fraction of accesses targets a process-wide *shared* region
// with a popularity-skewed block choice; those produce the inter-thread
// constructive/destructive interactions of paper §IV-A2.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/trace/access.hpp"
#include "src/trace/draw_table.hpp"
#include "src/trace/recency_stack.hpp"

namespace capart::trace {

/// Behavioural parameters of one thread during one phase.
struct GenParams {
  /// Fraction of instructions that are memory operations (clamped to
  /// [0.005, 0.95] when sampling gaps).
  double mem_ratio = 0.30;
  /// Private working-set size W in cache blocks (LRU-stack capacity).
  std::uint32_t working_set_blocks = 4096;
  /// Reuse-depth skew gamma: > 1 concentrates reuses near the top of the
  /// stack (strong locality); < 1 spreads them toward full working-set scans.
  double reuse_skew = 1.0;
  /// Probability an access streams to a never-seen block (compulsory miss).
  double p_new = 0.02;
  /// Probability an access targets the application-shared region.
  double share_fraction = 0.10;
  /// Shared-region size in blocks.
  std::uint32_t shared_region_blocks = 1024;
  /// Popularity skew of shared blocks (> 1 makes a few blocks hot, which is
  /// what makes inter-thread reuse constructive).
  double shared_skew = 2.0;
  /// Fraction of memory operations that are stores.
  double write_fraction = 0.30;
  /// Whether this thread's streaming (never-seen-block) accesses follow a
  /// sequential, prefetch-friendly pattern. True marks them `prefetchable`
  /// (reduced miss latency; see trace::NextOp) — a classic cache polluter.
  /// False models irregular first touches (pointer chasing) that pay the
  /// full miss latency.
  bool prefetch_friendly_streams = true;

  /// Rejects parameter values the generator's math cannot survive — NaN/inf
  /// anywhere (NaN slips through the sampling clamps: std::min/max propagate
  /// it into the cached gap log1p denominator and every drawn address),
  /// rates outside [0, 1], non-positive skews, an empty working set, and an
  /// empty shared region that shared accesses would still index (the
  /// hot-block pick underflows `blocks - 1`). Throws ConfigError naming
  /// `gen.<field>` so phase sweeps and serve specs get a recoverable,
  /// attributable rejection instead of NaN addresses or an abort.
  void validate() const;
};

class StackDistGenerator {
 public:
  /// Ops one fill() generates at most.
  static constexpr std::size_t kBatchOps = 256;

  /// `private_base` / `shared_base` are the byte addresses where this
  /// thread's private region and the application's shared region begin; the
  /// shared base must be identical across sibling threads. The draws use
  /// `tables` (see draw_table.hpp); without them, the process-wide
  /// registry's tables for `params`.
  StackDistGenerator(const GenParams& params, Rng rng, Addr private_base,
                     Addr shared_base);
  StackDistGenerator(const GenParams& params, const DrawTables& tables,
                     Rng rng, Addr private_base, Addr shared_base);

  /// Generates up to min(n, kBatchOps) (gap, memory-access) units into
  /// `out` and returns how many, in two passes: every draw first — a
  /// threshold-table lookup, or the libm expression where the table
  /// declines — in the order op by op generation would make them, then
  /// the batch's LRU-stack moves. Each op advances `position` by its
  /// gap + 1, and the batch ends after the op that takes `position` to
  /// `stop` or beyond, so a caller switching params there (a phase
  /// boundary) gets the stream a one-op-at-a-time caller gets.
  /// Deterministic in the seeding Rng.
  std::size_t fill(NextOp* out, std::size_t n, Instructions& position,
                   Instructions stop);

  /// The next unit: a one-op fill().
  NextOp next();

  /// Switches behaviour at a phase boundary. The LRU stack is retained
  /// (truncated to the new working-set size), modeling a program moving to a
  /// new phase with warm state. The draws use `tables`; without them, the
  /// process-wide registry's (which may build them).
  void set_params(const GenParams& params);
  void set_params(const GenParams& params, const DrawTables& tables);

  /// Sizes the LRU stack's storage for working sets of up to `blocks`, so
  /// later draws never allocate. The stream is unchanged: capacity is not
  /// observable.
  void reserve(std::uint32_t blocks);

  const GenParams& params() const noexcept { return params_; }

  /// Number of distinct private blocks touched so far.
  std::uint32_t distinct_blocks() const noexcept { return next_block_; }

 private:
  Instructions draw_gap();
  std::uint64_t draw_depth();
  Addr shared_access();
  /// Re-references the block at stack depth `depth` (1 = MRU), or touches a
  /// fresh block when `depth` is 0 or beyond the stack. Returns the address;
  /// sets `was_new` when a never-seen block was touched.
  Addr private_access(std::uint64_t depth, bool& was_new);

  /// Re-derives the cached per-params terms below (phase switch / ctor).
  void refresh_param_cache();

  GenParams params_;
  Rng rng_;
  /// The clamped parameters the libm draws use, computed once per phase.
  DrawParams draw_;
  DrawTables tables_;
  /// Rng::chance of share_fraction, p_new and write_fraction.
  LatticeChance shared_;
  LatticeChance fresh_;
  LatticeChance write_;
  Addr private_base_;
  Addr shared_base_;
  /// LRU stack of private blocks (recency_stack.hpp): the 4,096 most
  /// recent in a vector whose dead prefix absorbs the LRU drops, older ones
  /// in a log that a deep reuse clears a slot of instead of memmoving the
  /// blocks above it. Its order, and so the stream, is a single vector's.
  RecencyStack stack_;
  std::uint32_t next_block_ = 0;

  /// A private op of the batch being generated: its slot and drawn depth.
  struct PendingPrivate {
    std::uint32_t slot = 0;
    std::uint64_t depth = 0;
  };
  std::array<PendingPrivate, kBatchOps> pending_;
};

}  // namespace capart::trace
