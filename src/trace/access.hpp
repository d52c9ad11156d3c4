// Unit of work produced by a trace generator.
#pragma once

#include <cstdint>

#include "src/common/types.hpp"

namespace capart::trace {

/// Outcome of the private-cache portion of one access, precomputed by the
/// trace spool (sim/trace_spool.hpp) or the streamed resolve
/// (sim/streamed_resolve.hpp). A thread's L1 (and optional private L2) sees
/// only that thread's own stream, so its hit/miss sequence is independent
/// of the global interleaving — it can be resolved ahead of the driver, or
/// once per (profile, seed, geometry) and replayed by every arm that shares
/// them. kUnresolved marks raw generator output: the driver simulates the
/// full hierarchy itself.
enum class ResolvedLevel : std::uint8_t {
  kUnresolved = 0,
  kL1Hit,        ///< hits in the private L1
  kPrivateL2Hit, ///< misses L1, hits the private L2 (three-level mode)
  kShared,       ///< reaches the shared cache
};

/// A run of non-memory instructions followed by exactly one memory
/// instruction. Batching the non-memory gap keeps the simulation loop
/// proportional to memory operations, not instructions.
struct NextOp {
  Instructions gap = 0;  ///< non-memory instructions preceding the access
  Addr addr = 0;
  AccessType type = AccessType::kRead;
  /// True for a streaming touch of a never-seen block whose pattern is
  /// spatially sequential: prefetch-friendly hardware hides most of its miss
  /// latency (the timing model charges a reduced penalty), while the line
  /// still occupies cache space. This is what makes a streaming thread a
  /// cache *polluter* — high insertion rate, little performance return —
  /// the shared-LRU pathology of paper §I.
  bool prefetchable = false;
  /// Precomputed private-cache outcome (spooled and streamed resolves).
  ResolvedLevel resolved = ResolvedLevel::kUnresolved;
};

}  // namespace capart::trace
