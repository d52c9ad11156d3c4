// Statistics, spans, host facts and result output shared by every mode.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "src/common/error.hpp"
#include "src/mem/simd.hpp"

namespace capart::e2e {

// -------------------------------------------------------------------- stats

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::array<double, 3> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long>(values.size());
  if (ld == 0) return {0.0, 0.0, 0.0};
  if (ld == 1) return {values[0], values[0], values[0]};
  std::array<double, 3> out{};
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double tail_percentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

// -------------------------------------------------------------------- spans

SpanLog::Scope::~Scope() {
  if (log_ == nullptr || index_ < 0) return;
  log_->spans_[static_cast<std::size_t>(index_)].end = Clock::now();
  log_->open_.pop_back();
}

SpanLog::Scope SpanLog::scope(std::string_view name, std::string_view run) {
  if (!enabled_) return Scope(nullptr, -1);
  const int index = static_cast<int>(spans_.size());
  const Clock::time_point now = Clock::now();
  spans_.push_back({std::string(name), std::string(run), now, now,
                    open_.empty() ? -1 : open_.back(), 0});
  open_.push_back(index);
  return Scope(this, index);
}

void SpanLog::add(std::string_view name, std::string_view run,
                  Clock::time_point start, Clock::time_point end,
                  std::uint32_t lane) {
  if (!enabled_) return;
  spans_.push_back({std::string(name), std::string(run), start, end,
                    open_.empty() ? -1 : open_.back(), lane});
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  if (!enabled_ || spans_.empty()) return;
  const Clock::time_point origin = spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  obs::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .key("name").value(s.name)
        .key("ph").value("X")
        .key("pid").value(1)
        .key("tid").value(s.lane)
        .key("ts").value(us(s.start))
        .key("dur").value(us(s.end) - us(s.start))
        .key("args").begin_object()
        .key("id").value(i)
        .key("parent").value(s.parent)
        .key("run").value(s.run)
        .end_object()
        .end_object();
  }
  w.end_array().key("displayTimeUnit").value("ms").end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << '\n';
  if (!out) throw Error("cannot write trace " + path);
}

// --------------------------------------------------------------- host speed

SpeedProbe::SpeedProbe() : next_(std::size_t{1} << 18) {
  // Sattolo's shuffle of the identity makes one cycle through every entry;
  // splitmix64 with a fixed seed makes it the same table in every build.
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::swap(next_[i], next_[z % i]);
  }
  run();  // faults the table in
  readings_.clear();
}

double SpeedProbe::run() {
  const auto lap = [&] {
    std::uint32_t at = 0;
    for (std::size_t step = 0; step < next_.size(); ++step) at = next_[at];
    // A lap ends where it began; the check keeps the loads from being
    // elided.
    if (at != 0) throw Error("speed probe: the chase table is not one cycle");
  };
  // An untimed lap first brings the table into the caches as far as the
  // host lets it, so the timed lap does not depend on how much of it the
  // simulator evicted since the last reading.
  lap();
  const Clock::time_point start = Clock::now();
  lap();
  last_ = seconds_since(start);
  readings_.push_back(last_);
  return last_;
}

// --------------------------------------------------------------------- host

namespace {

std::string read_first_line(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The checked-out commit, read from the nearest .git above the working
/// directory without running git; "unknown" outside a repository.
std::string current_commit() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::path dir = fs::current_path(ec); !ec && !dir.empty();
       dir = dir.parent_path()) {
    const fs::path git = dir / ".git";
    if (fs::is_directory(git, ec)) {
      const std::string head = read_first_line(git / "HEAD");
      if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
      const std::string ref = head.substr(5);
      std::string hash = read_first_line(git / ref);
      if (!hash.empty()) return hash;
      std::ifstream packed(git / "packed-refs");
      for (std::string line; std::getline(packed, line);) {
        if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
          return line.substr(0, 40);
        }
      }
      return "unknown";
    }
    if (dir == dir.root_path()) break;
  }
  return "unknown";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// What a timing depends on besides the code, recorded with every result.
struct HostFacts {
  std::string cpu_model;
  unsigned nproc = 1;
  std::string simd;
  std::string compiler;
  std::string build_type;
  unsigned workers = 1;
  std::string commit;
};

HostFacts host_facts(unsigned workers) {
  HostFacts h;
  h.cpu_model = cpu_model();
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.simd = std::string(mem::simd::backend_name());
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = CAPART_BENCH_BUILD_TYPE;
  h.workers = workers;
  h.commit = current_commit();
  return h;
}

void write_host(obs::JsonWriter& w, const HostFacts& host) {
  w.begin_object()
      .key("cpu_model").value(host.cpu_model)
      .key("nproc").value(host.nproc)
      .key("simd_backend").value(host.simd)
      .key("compiler").value(host.compiler)
      .key("build_type").value(host.build_type)
      .key("workers").value(host.workers)
      .key("commit").value(host.commit)
      .end_object();
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t directory_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// ------------------------------------------------------------------ metrics

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", false, 0.25},
      {"wall_s", "s", false, 0.15},
      {"accesses_per_s", "1/s", true, 0.15},
      {"interval_ms_p50", "ms", false, 0.15},
      {"interval_ms_tail", "ms", false, 0.20},
      {"peak_rss_mb", "MB", false, 0.05},
      {"disk_mb", "MB", false, 0.01},
      {"failed_arm_frac", "frac", false, 0.0},
      {"sim_minstr_per_s", "Minstr/s", true, 0.15},
  };
  return specs;
}

namespace {

/// The benchmark contract reports only metrics that are never 0: disk_mb is
/// 0 on the live workload and failed_arm_frac on a correct run, so both
/// appear only in the --out file.
bool in_contract(std::string_view metric) {
  return metric != "disk_mb" && metric != "failed_arm_frac";
}

void write_metrics(obs::JsonWriter& w, const Metrics& metrics,
                   bool contract_only) {
  w.begin_object();
  for (const Metric& m : metrics) {
    if (contract_only && !in_contract(m.name)) continue;
    w.key(m.name).begin_object().key("value").value(m.value);
    w.key("unit").value(m.unit).end_object();
  }
  w.end_object();
}

}  // namespace

std::string contract_line(const RunResult& result, bool traced) {
  obs::JsonWriter w;
  w.begin_object()
      .key("correct").value(result.correct)
      .key("attempted").value(result.attempted)
      .key("failed").value(result.failed)
      .key("metrics");
  if (traced) {
    write_metrics(w, result.layers, false);
  } else {
    write_metrics(w, result.end_to_end, true);
  }
  w.end_object();
  return w.str();
}

void write_result_json(const std::string& path, const RunOptions& options,
                       const RunResult& result) {
  obs::JsonWriter w;
  w.begin_object()
      .key("workload").value(result.workload)
      .key("seed").value(options.seed)
      .key("seconds").value(options.seconds)
      .key("scale").value(options.scale == Scale::kSmoke ? "smoke" : "full")
      .key("traced").value(!options.trace_path.empty())
      .key("host");
  write_host(w, host_facts(result.workers));
  w.key("correct").value(result.correct)
      .key("attempted").value(result.attempted)
      .key("failed").value(result.failed)
      .key("expected_checked").value(result.expected_checked)
      .key("first_mismatch").value(result.mismatch)
      .key("outputs_digest").value(result.outputs_digest)
      .key("sweeps").value(result.sweeps)
      .key("interval_samples").value(result.interval_samples)
      .key("tail_percentile").value(result.tail_pct)
      .key("speed_probe").begin_object()
      .key("reference_s").value(SpeedProbe::kReferenceSeconds)
      .key("median_s").value(result.probe_s_median)
      .key("readings").value(result.probe_readings)
      .key("raw_wall_s").value(result.raw_wall_s)
      .end_object()
      .key("metrics");
  write_metrics(w, result.end_to_end, false);
  w.key("layers");
  write_metrics(w, result.layers, false);
  w.end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << '\n';
  if (!out) throw Error("cannot write " + path);
}

}  // namespace capart::e2e
