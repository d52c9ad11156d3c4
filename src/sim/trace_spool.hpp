// Trace spool: resolved-trace generation, caching and mmap replay.
//
// Profile sweeps run the same workload under many arms — every partitioning
// policy, enforcement mode and index mechanism replays the identical
// per-thread reference streams against the identical private hierarchy
// (seeded generators, static 1:1 thread->core binding). Only the *shared*
// cache differs between arms. The spool exploits that: the first experiment
// needing a (profile, seed, work, private-hierarchy) combination generates
// each thread's stream once, resolves every op against a freshly built
// private L1 (+ optional private L2), and writes the resolved ops to a
// packed v2 trace file (trace_io.hpp). Every later experiment — in this
// process or any other sharing the spool directory — mmap()s the file and
// replays it, skipping both generation (~40 % of a fig 19-21 sweep that
// simulates everything on the driver's thread, draws and LRU-stack moves)
// and private-hierarchy simulation (the L1s are another ~25 %): the driver
// dispatches resolved ops through CmpSystem::memory_access_resolved, which
// replays the private-level counter effects and simulates only the shared
// cache.
//
// Resolving: a config's missing streams are resolved together, on the
// streamed resolve's helper pool, and each is written to its file chunk by
// chunk as it resolves, so no buffer holds a whole stream.
//
// Bit-identity: the resolve pass runs ThreadResolver (streamed_resolve.hpp),
// the loop the default live path also streams from: it consumes the
// generator exactly as the driver would (an op's access executes iff the
// thread's cumulative instruction budget admits its gap plus one access)
// and runs the same single-thread CacheCore against the same geometry, so the
// replayed run's counters, interval boundaries and shared cache contents are
// byte-for-byte those of an unresolved live run. Asserted by
// tests/test_trace_spool.cpp, tests/test_streamed_resolve.cpp and the
// fig19-21 byte-identity gate.
//
// Keys and safety: every file stores its full human-readable key (profile,
// threads, seed, per-thread work, private geometries, replacement kinds);
// open verifies it, so hash-named files can never be confused across
// configurations. Writes are temp+rename, so concurrent producers are safe.
// In one process an entry is resolved once: a caller that misses an entry
// another caller is resolving waits for that caller's file (or failure).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/op_source.hpp"

namespace capart::sim {

/// The spool identity of `config` for thread `t` — everything that
/// determines the thread's resolved stream and nothing that doesn't (shared
/// cache, policy, enforcement, banks, index mechanism, and --jobs knobs are
/// all excluded; arms differing only in those share spool entries).
std::string spool_key(const ExperimentConfig& config, Instructions per_thread,
                      ThreadId t);

/// Spool file path for one (config, thread) stream inside `dir`.
std::string spool_path(const std::string& dir, const std::string& key);

/// Returns one resolved-replay OpSource per thread for `config`, resolving
/// and writing missing spool entries first, all in one pass on the helper
/// pool. Entries another caller in this process is resolving are waited
/// for, not resolved again. Mapped files are cached in-process, so sibling
/// arms pay one mmap each. Returns an empty vector when the config is
/// ineligible for spooling (migration schedules rebind L1s mid-run).
/// Throws capart::Error on I/O failure (a waiting caller throws one with
/// the resolving caller's message) and ConfigError on invalid profile
/// parameters; a failed pass leaves no spool file behind.
std::vector<std::unique_ptr<trace::OpSource>> spool_sources(
    const ExperimentConfig& config, Instructions per_thread);

/// Test hook: thread streams this process has resolved into a spool so far.
std::uint64_t spool_streams_resolved_for_testing() noexcept;

/// Shrinks `dir` to at most `max_bytes` of spool (capart_*.trc) files by
/// deleting least-recently-used entries — mtime order, oldest first;
/// acquires refresh the mtime of entries they hit, so hot profiles survive.
/// Files currently held by this process's registry are never deleted.
/// Returns the bytes deleted. `max_bytes` == 0 disables (no-op). Deletion
/// races with concurrent producers are benign: a deleted entry regenerates
/// on its next miss, and open file handles keep their data.
std::uint64_t spool_gc(const std::string& dir, std::uint64_t max_bytes);

}  // namespace capart::sim
