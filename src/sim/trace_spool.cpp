#include "src/sim/trace_spool.hpp"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/error.hpp"
#include "src/sim/streamed_resolve.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/trace_io.hpp"

namespace capart::sim {
namespace {

std::uint64_t fnv64(const std::string& s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

std::string geometry_key(const mem::CacheGeometry& g) {
  // The index mechanism is deliberately absent: lookups are bit-identical
  // across kinds, so hash- and scan-indexed arms share spool entries.
  return std::to_string(g.sets) + "x" + std::to_string(g.ways) + "x" +
         std::to_string(g.line_bytes) + ":" +
         std::string(mem::to_string(g.repl));
}

/// Replays one thread's resolved packed trace, sharing ownership of the
/// mapped file with every sibling replay.
class SpooledReplay final : public trace::OpSource {
 public:
  explicit SpooledReplay(std::shared_ptr<trace::MmapTraceFile> file)
      : file_(std::move(file)),
        replay_(file_->ops(), trace::PackedReplay::OnEnd::kAbort) {}

  trace::NextOp next() override { return replay_.next(); }
  std::size_t fill(trace::NextOp* out, std::size_t n) override {
    return replay_.fill(out, n);
  }

 private:
  std::shared_ptr<trace::MmapTraceFile> file_;
  trace::PackedReplay replay_;
};

/// Process-wide cache of mapped spool files so the 8+ arms sharing a profile
/// pay for one mmap (and one resolve) per thread stream. Keyed by path; the
/// stored key string is verified against the request on every acquire.
std::mutex g_registry_mutex;
std::map<std::string, std::shared_ptr<trace::MmapTraceFile>>& registry() {
  static auto* m =
      new std::map<std::string, std::shared_ptr<trace::MmapTraceFile>>();
  return *m;
}

/// An entry one caller is acquiring. Callers asking for its path meanwhile
/// wait for it instead of resolving the stream again.
struct InFlight {
  bool done = false;
  std::shared_ptr<trace::MmapTraceFile> file;
  /// Set when the acquisition failed: what the acquirer's error says.
  std::optional<std::string> error;
};

/// In-flight entries by path, and the signal that one completed (both
/// guarded by g_registry_mutex).
std::map<std::string, std::shared_ptr<InFlight>>& in_flight() {
  static auto* m = new std::map<std::string, std::shared_ptr<InFlight>>();
  return *m;
}
std::condition_variable g_in_flight_done;

std::atomic<std::uint64_t> g_streams_resolved{0};

/// Refreshes `path`'s mtime so spool_gc's LRU order sees this hit (best
/// effort: a failure only makes the entry look colder than it is).
void touch_spool_entry(const std::string& path) noexcept {
  ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
}

/// Generates and resolves the streams of `threads` exactly as a live driver
/// run would consume them (ThreadResolver, on the helper pool), and writes
/// each to its spool file as it is resolved.
void resolve_to_spool(const ExperimentConfig& config, Instructions per_thread,
                      const std::vector<std::string>& keys,
                      const std::vector<std::string>& paths,
                      const std::vector<ThreadId>& threads) {
  std::vector<std::unique_ptr<trace::PackedTraceWriter>> writers;
  writers.reserve(threads.size());
  for (const ThreadId t : threads) {
    writers.push_back(
        std::make_unique<trace::PackedTraceWriter>(paths[t], keys[t]));
  }
  // A final op whose gap alone exhausts the budget is pulled by the driver
  // but its access never runs, so the resolver leaves it kUnresolved. The
  // spool keeps it that way on purpose, as a tripwire: replaying it as an
  // executed access would be a driver bug, and memory_access_resolved
  // aborts on an unresolved op.
  resolve_streams(
      make_resolve_spec(config,
                        trace::make_profile(config.profile, config.num_threads),
                        per_thread),
      threads,
      [&writers](std::size_t i, std::span<const trace::PackedOp> records) {
        writers[i]->append(records);
      });
  for (const std::unique_ptr<trace::PackedTraceWriter>& writer : writers) {
    writer->finish();
  }
  g_streams_resolved.fetch_add(threads.size(), std::memory_order_relaxed);
}

/// Opens the entries of `led` — the threads whose in-flight entries this
/// caller holds — from disk, resolving every one that is missing in one
/// pass, and publishes them (or the failure) to the registry and to the
/// callers waiting on them.
void acquire_led(const ExperimentConfig& config, Instructions per_thread,
                 const std::vector<std::string>& keys,
                 const std::vector<std::string>& paths,
                 const std::vector<ThreadId>& led,
                 std::vector<std::shared_ptr<trace::MmapTraceFile>>& files) {
  // Waiters throw an Error of their own with the message. Rethrowing one
  // exception object on several threads would leave its destruction to
  // whichever lets go last, an ordering ThreadSanitizer cannot see through
  // the uninstrumented C++ runtime.
  std::exception_ptr error;
  std::optional<std::string> message;
  try {
    std::vector<ThreadId> missing;
    for (const ThreadId t : led) {
      files[t] = trace::MmapTraceFile::open(paths[t], keys[t]);
      if (files[t] == nullptr) {
        missing.push_back(t);
      } else {
        // Disk hit from a previous process: refresh the GC recency stamp
        // (a fresh resolve already carries one from the write).
        touch_spool_entry(paths[t]);
      }
    }
    if (!missing.empty()) {
      resolve_to_spool(config, per_thread, keys, paths, missing);
      for (const ThreadId t : missing) {
        files[t] = trace::MmapTraceFile::open(paths[t], keys[t]);
        CAPART_CHECK(files[t] != nullptr,
                     "trace spool: freshly written file vanished");
      }
    }
  } catch (const std::exception& e) {
    error = std::current_exception();
    message = e.what();
  } catch (...) {
    error = std::current_exception();
    message = "trace spool: unknown failure";
  }
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const ThreadId t : led) {
      const auto it = in_flight().find(paths[t]);
      it->second->done = true;
      if (message) {
        it->second->error = message;
      } else {
        it->second->file = registry().emplace(paths[t], files[t]).first->second;
      }
      in_flight().erase(it);
    }
  }
  g_in_flight_done.notify_all();
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::string spool_key(const ExperimentConfig& config, Instructions per_thread,
                      ThreadId t) {
  std::string key = "capart-trace-v2;profile=" + config.profile +
                    ";threads=" + std::to_string(config.num_threads) +
                    ";seed=" + std::to_string(config.seed) +
                    ";work=" + std::to_string(per_thread) +
                    ";l1=" + geometry_key(config.l1);
  if (config.enable_private_l2) {
    key += ";pl2=" + geometry_key(config.private_l2);
  }
  key += ";thread=" + std::to_string(t);
  return key;
}

std::string spool_path(const std::string& dir, const std::string& key) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  return path + "capart_" + hex64(fnv64(key)) + ".trc";
}

std::vector<std::unique_ptr<trace::OpSource>> spool_sources(
    const ExperimentConfig& config, Instructions per_thread) {
  std::vector<std::unique_ptr<trace::OpSource>> sources;
  if (config.trace_spool_dir.empty() || !config.migrations.empty()) {
    // Migrations rebind threads to foreign L1s mid-run; resolved traces bake
    // in the 1:1 binding, so such runs must simulate the hierarchy live.
    return sources;
  }
  const ThreadId threads = config.num_threads;
  std::vector<std::string> keys(threads);
  std::vector<std::string> paths(threads);
  std::vector<std::shared_ptr<trace::MmapTraceFile>> files(threads);
  // Entries another caller is acquiring, and the ones this call acquires.
  std::vector<std::shared_ptr<InFlight>> awaited(threads);
  std::vector<ThreadId> led;
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (ThreadId t = 0; t < threads; ++t) {
      keys[t] = spool_key(config, per_thread, t);
      paths[t] = spool_path(config.trace_spool_dir, keys[t]);
      const auto hit = registry().find(paths[t]);
      if (hit != registry().end()) {
        CAPART_CHECK(hit->second->key() == keys[t],
                     "trace spool: path hash collision");
        touch_spool_entry(paths[t]);
        files[t] = hit->second;
        continue;
      }
      auto [it, inserted] = in_flight().try_emplace(paths[t]);
      if (inserted) {
        it->second = std::make_shared<InFlight>();
        led.push_back(t);
      } else {
        awaited[t] = it->second;
      }
    }
  }
  // Lead first, then wait: a caller never waits while holding entries, so
  // callers cannot wait on each other in a cycle.
  if (!led.empty()) acquire_led(config, per_thread, keys, paths, led, files);
  {
    std::unique_lock<std::mutex> lock(g_registry_mutex);
    for (ThreadId t = 0; t < threads; ++t) {
      if (awaited[t] == nullptr) continue;
      const InFlight& entry = *awaited[t];
      g_in_flight_done.wait(lock, [&entry] { return entry.done; });
      if (entry.error) throw Error(*entry.error);
      CAPART_CHECK(entry.file->key() == keys[t],
                   "trace spool: path hash collision");
      files[t] = entry.file;
    }
  }

  sources.reserve(threads);
  for (ThreadId t = 0; t < threads; ++t) {
    sources.push_back(std::make_unique<SpooledReplay>(std::move(files[t])));
  }
  spool_gc(config.trace_spool_dir, config.trace_spool_max_bytes);
  return sources;
}

std::uint64_t spool_streams_resolved_for_testing() noexcept {
  return g_streams_resolved.load(std::memory_order_relaxed);
}

std::uint64_t spool_gc(const std::string& dir, std::uint64_t max_bytes) {
  if (max_bytes == 0 || dir.empty()) return 0;
  namespace fs = std::filesystem;
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("capart_", 0) != 0 ||
        e.path().extension() != ".trc" || !e.is_regular_file(ec)) {
      continue;
    }
    Entry entry;
    entry.path = e.path();
    entry.mtime = e.last_write_time(ec);
    if (ec) continue;  // raced with a concurrent delete
    entry.bytes = e.file_size(ec);
    if (ec) continue;
    total += entry.bytes;
    entries.push_back(std::move(entry));
  }
  if (total <= max_bytes) return 0;
  // Oldest first; path breaks mtime ties so eviction order is deterministic.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime
                                        : a.path < b.path;
            });
  std::uint64_t deleted = 0;
  for (const Entry& entry : entries) {
    if (total - deleted <= max_bytes) break;
    {
      // Entries held by this process stay: deleting them would force a
      // redundant resolve on the next acquire for no memory win (the
      // mapping pins the pages regardless). So do entries in flight, whose
      // acquirer opens them right after the write.
      std::lock_guard<std::mutex> lock(g_registry_mutex);
      const std::string path = entry.path.string();
      if (registry().count(path) != 0 || in_flight().count(path) != 0) {
        continue;
      }
    }
    if (fs::remove(entry.path, ec) && !ec) deleted += entry.bytes;
  }
  return deleted;
}

}  // namespace capart::sim
