#include "src/sim/trace_spool.hpp"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <mutex>
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

/// Refreshes `path`'s mtime so spool_gc's LRU order sees this hit (best
/// effort: a failure only makes the entry look colder than it is).
void touch_spool_entry(const std::string& path) noexcept {
  ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
}

/// Generates and resolves thread `t`'s stream exactly as a live driver run
/// would consume it (the streamed sources' loop), and writes the packed
/// spool file.
void resolve_thread(const ResolveSpec& spec, ThreadId t,
                    const std::string& key, const std::string& path) {
  ThreadResolver resolver(spec, t);
  std::vector<trace::PackedOp> ops;
  ops.reserve(static_cast<std::size_t>(spec.per_thread / 4) + 16);
  std::array<trace::NextOp, 256> batch;
  while (const std::size_t got = resolver.fill(batch.data(), batch.size())) {
    for (std::size_t i = 0; i < got; ++i) {
      ops.push_back(trace::pack_op(batch[i]));
    }
  }
  // A final op whose gap alone exhausts the budget is pulled by the driver
  // but its access never runs, so the resolver leaves it kUnresolved. The
  // spool keeps it that way on purpose, as a tripwire: replaying it as an
  // executed access would be a driver bug, and memory_access_resolved
  // aborts on an unresolved op.
  trace::write_packed_trace_file(path, key, ops);
}

std::shared_ptr<trace::MmapTraceFile> acquire_thread(
    const ExperimentConfig& config, const ResolveSpec& spec, ThreadId t) {
  const std::string key = spool_key(config, spec.per_thread, t);
  const std::string path = spool_path(config.trace_spool_dir, key);
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto it = registry().find(path);
    if (it != registry().end()) {
      CAPART_CHECK(it->second->key() == key,
                   "trace spool: path hash collision");
      touch_spool_entry(path);
      return it->second;
    }
  }
  std::shared_ptr<trace::MmapTraceFile> file =
      trace::MmapTraceFile::open(path, key);
  if (file == nullptr) {
    resolve_thread(spec, t, key, path);
    file = trace::MmapTraceFile::open(path, key);
    CAPART_CHECK(file != nullptr, "trace spool: freshly written file vanished");
  } else {
    // Disk hit from a previous process: refresh the GC recency stamp (a
    // fresh resolve already carries one from the write).
    touch_spool_entry(path);
  }
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  auto [it, inserted] = registry().emplace(path, std::move(file));
  return it->second;
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
  const ResolveSpec spec = make_resolve_spec(
      config, trace::make_profile(config.profile, config.num_threads),
      per_thread);

  sources.reserve(config.num_threads);
  for (ThreadId t = 0; t < config.num_threads; ++t) {
    sources.push_back(
        std::make_unique<SpooledReplay>(acquire_thread(config, spec, t)));
  }
  spool_gc(config.trace_spool_dir, config.trace_spool_max_bytes);
  return sources;
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
      // mapping pins the pages regardless).
      std::lock_guard<std::mutex> lock(g_registry_mutex);
      if (registry().count(entry.path.string()) != 0) continue;
    }
    if (fs::remove(entry.path, ec) && !ec) deleted += entry.bytes;
  }
  return deleted;
}

}  // namespace capart::sim
