// Streamed resolve: the default live path, with each thread's op stream
// generated and resolved against its private caches ahead of the driver.
//
// A live run spends most of its host time outside the shared cache: on the
// fig 19-21 sweep, simulated all on the driver's thread, generating the op
// streams is ~40 % of the wall (the LRU stack's moves about half of a
// critical thread's op) and simulating the private L1s another ~25 %.
// Neither depends on the shared cache or on the other threads. The
// model has no coherence between private caches, so a thread's private
// hit/miss sequence is a function of its own stream alone — the fact the
// trace spool rests on. A run with no caller-supplied sources, no spool
// directory and no migrations therefore gets one streamed source per
// thread: it runs the spool's generate-and-resolve loop (ThreadResolver)
// and the driver replays the resolved ops through
// CmpSystem::memory_access_resolved, as it replays a spool. Results are
// bit-identical to the unresolved path by construction.
//
// Helpers: a process-wide pool of helper threads fills each stream's small
// ring of fixed-size chunks ahead of the driver. The pool starts with the
// first streamed run (or cold spool resolve, which drains the same rings
// into its files: resolve_streams) and holds one thread per CPU of the
// process's affinity mask beyond the caller's; while several streamed runs
// are active (a BatchRunner with --jobs), only the CPUs they leave idle
// get a helper. When the driver needs a chunk that is not ready and no
// helper is filling it, it resolves the ops itself, straight into its own
// ring — so a single-CPU or fully busy host costs what the unresolved path
// costs; the driver only waits on a chunk a helper has already started.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/op_source.hpp"
#include "src/trace/phase.hpp"
#include "src/trace/trace_io.hpp"

namespace capart::sim {

/// What shapes every resolved stream of a run: exactly the fields the spool
/// key records (profile, seed, per-thread work, private geometries).
struct ResolveSpec {
  trace::BenchmarkProfile profile;
  std::uint64_t seed = 0;
  Instructions per_thread = 0;
  mem::CacheGeometry l1;
  /// Set in three-level mode (ExperimentConfig::enable_private_l2).
  std::optional<mem::CacheGeometry> private_l2;
};

ResolveSpec make_resolve_spec(const ExperimentConfig& config,
                              trace::BenchmarkProfile profile,
                              Instructions per_thread);

/// Thread `t`'s op stream, generated and resolved against a private L1 (and
/// private L2) of its own, exactly as a live driver run consumes it: the
/// driver pulls an op while the thread has budget left, and executes its
/// access only when the gap plus the access itself still fit the thread's
/// total budget. The spool writer and the streamed sources both run this
/// loop, so a spooled and a streamed run see the same resolved ops.
class ThreadResolver {
 public:
  ThreadResolver(const ResolveSpec& spec, ThreadId t);

  /// Writes the thread's next ops, at most `n`, to `out` and returns how
  /// many; 0 once every op the driver will pull has been produced. The last
  /// op may be pulled but never executed (its gap alone exhausts the
  /// budget); it is left kUnresolved.
  std::size_t fill(trace::NextOp* out, std::size_t n);

  /// True once fill() has nothing more to produce.
  bool exhausted() const noexcept { return pulled_ >= per_thread_; }

 private:
  trace::PhasedGenerator generator_;
  mem::CacheCore l1_;  ///< single-thread, like the private L2
  std::optional<mem::CacheCore> private_l2_;
  Instructions per_thread_;
  /// Instructions of every op produced so far (gaps plus accesses).
  Instructions pulled_ = 0;
};

/// One streamed-resolve source per thread for `config`, or an empty vector
/// when the run is not eligible: a spool directory is configured (the spool
/// serves it), or migrations rebind threads to foreign L1s mid-run (which a
/// per-thread resolve cannot express). Construction is cheap: generators,
/// private caches and chunk rings are built on the first fill(). A failure
/// while resolving — on a helper or inline — is thrown from fill().
std::vector<std::unique_ptr<trace::OpSource>> streamed_sources(
    const ExperimentConfig& config, const trace::BenchmarkProfile& profile,
    Instructions per_thread);

/// Receives stream `i`'s next resolved records (stream order within a
/// stream; streams interleave).
using StreamSink =
    std::function<void(std::size_t i, std::span<const trace::PackedOp>)>;

/// Resolves the streams of threads `threads` of `spec` on the helper pool
/// and the calling thread together, handing stream i (thread threads[i])
/// to `sink` chunk by chunk as it is resolved — the spool writer's path.
/// While it runs, the calling thread counts as one of the pool's drivers.
/// Returns once every stream is exhausted; a failure, on a helper or
/// inline, is thrown from here once the helpers have let go of the streams.
void resolve_streams(ResolveSpec spec, std::vector<ThreadId> threads,
                     const StreamSink& sink);

/// Helper threads the process-wide pool may run: one per CPU of the
/// affinity mask beyond the caller's (0 on a single CPU: every chunk is then
/// resolved inline).
unsigned streamed_resolve_helpers();

/// Test hook: streamed runs started while set resolve every chunk inline,
/// with no ring and no helper (the single-CPU path on any host).
void force_inline_resolve_for_testing(bool force) noexcept;

/// Test hook: while set, every chunk a helper thread starts throws
/// capart::Error instead of resolving, so tests can check that a helper's
/// failure surfaces from fill() as the run's error.
void fail_helper_chunks_for_testing(bool fail) noexcept;

}  // namespace capart::sim
