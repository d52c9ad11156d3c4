// capart_bench: end-to-end and per-layer benchmark of the simulator.
//
// One process runs one workload. A workload is a frozen set of experiment
// arms (workloads.cpp); the run makes a fixed number of "sweeps" over every
// arm, checks each arm's simulated outputs against digests, and times each
// sweep and interval by its median over the sweeps, every span calibrated
// to a reference host speed by a SpeedProbe read next to it (runner.cpp). A
// traced run (--trace) additionally records spans around calls into the
// library's public functions and measures each layer on its own
// (layers.cpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/experiment.hpp"

namespace capart::e2e {

// ---------------------------------------------------------------- workloads

enum class Scale : std::uint8_t {
  kFull,   ///< the measured benchmark
  kSmoke,  ///< every workload at 4 intervals (--smoke)
};

struct Workload {
  std::string name;
  /// Key of the workload's digests in the expected files. fig19_21_live and
  /// fig19_21_spool share one set: live and spooled replay must agree.
  std::string digest_set;
  /// Arms replay a resolved-trace spool that each cold set-up writes into a
  /// fresh directory.
  bool spooled = false;
  /// Arms run through a BatchRunner with `workers` host threads and a JSONL
  /// event sink attached; otherwise one host thread runs them in order.
  bool batch = false;
  unsigned workers = 1;
  /// Host seconds one measured sweep took on the host the baseline was
  /// measured on. A run makes --seconds ÷ this many measured sweeps, so the
  /// sample count depends on the budget alone, never on the commit's speed;
  /// the intervals between two speed probes inside an arm follow from it
  /// the same way.
  double sweep_seconds = 1.0;
  /// Arm names are "profile/arm".
  std::vector<sim::ExperimentArm> arms;
  /// One config per distinct spool identity (one per profile).
  std::vector<sim::ExperimentConfig> profiles;
};

const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`; throws ConfigError on an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed, Scale scale);

/// Points every arm and profile config of a spooled workload at `dir`.
void set_spool_dir(Workload& workload, const std::string& dir);

/// Instructions each simulated thread retires in a run of `config`.
Instructions per_thread_work(const sim::ExperimentConfig& config);

// ------------------------------------------------------------------ digests

/// FNV-1a64 over an arm's cycles, instructions, L2 counters and every
/// per-interval per-thread record, plus one 32-bit digest per interval so a
/// mismatch can name the first differing interval.
struct ArmDigest {
  std::uint64_t total = 0;
  std::vector<std::uint32_t> intervals;
  bool operator==(const ArmDigest&) const = default;
};

ArmDigest digest_result(const sim::ExperimentResult& result);

struct NamedDigest {
  std::string arm;
  ArmDigest digest;
};
using DigestSet = std::vector<NamedDigest>;

/// Where `got` first differs from `expected` ("arm cg/model, interval 3"),
/// or "" when every arm of `got` matches. Arms absent from `got` are the
/// caller's to count.
std::string first_mismatch(const DigestSet& expected, const DigestSet& got);

/// Arms of `got` that differ from (or are missing in) `expected`.
std::size_t count_mismatches(const DigestSet& expected, const DigestSet& got);

/// One FNV-1a64 digest over a whole set, as 16 hex digits: equal for two
/// runs exactly when every arm simulated the same outputs.
std::string set_digest(const DigestSet& digests);

/// expected/seed<N>.json, or expected/smoke.json for the smoke scale.
std::string expected_path(const std::string& dir, std::uint64_t seed,
                          Scale scale);

/// The committed digest set `set` of `path`; nullopt when the file or the
/// set is absent. Throws capart::Error on a malformed file.
std::optional<DigestSet> load_expected(const std::string& path,
                                       const std::string& set);

/// Replaces digest set `set` in `path` (creating the file), keeping others.
void store_expected(const std::string& path, std::uint64_t seed,
                    const std::string& set, const DigestSet& digests);

// -------------------------------------------------------------------- stats

double median(std::vector<double> values);
/// The three cut points of Python's statistics.quantiles(values, n=4)
/// (the default "exclusive" method).
std::array<double, 3> quartiles(std::vector<double> values);
/// Linear-interpolated percentile `p` in [0, 100].
double percentile(std::vector<double> values, double p);
/// The highest of 50/75/90/95/99/99.9 with at least ten of `samples` beyond
/// it — the tail a timing reports.
double tail_percentile(std::size_t samples);

// ------------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Spans of a traced run, kept in memory and written as a Chrome trace at
/// the end. Disabled logs record nothing. Not thread-safe: the benchmark
/// records spans from its main thread only (batch arms' spans are added
/// after the batch from their sink timestamps).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string run;  ///< arm name: spans of one arm share it
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint32_t lane = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  Scope scope(std::string_view name, std::string_view run = {});
  /// A finished span timed elsewhere; nested under the open span.
  void add(std::string_view name, std::string_view run,
           Clock::time_point start, Clock::time_point end,
           std::uint32_t lane);
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --------------------------------------------------------------- host speed

/// A fixed pointer chase, timed: a lap of a random cyclic permutation over a
/// 1 MiB table, which fits in one core's L2. A shared host's speed
/// changes in spells of seconds to minutes as other guests contend for the
/// core's caches and memory; the chase slows with it, the way the simulator
/// does. A span of the benchmark is reported calibrated: its host seconds
/// times kReferenceSeconds ÷ the chase time read next to it, which is the
/// time it would have taken at the reference speed. The chase is the
/// benchmark's own code and depends on nothing in the library, so a change
/// to the simulator cannot move it.
class SpeedProbe {
 public:
  /// About the chase's time on the baseline host in a quiet spell, so
  /// calibrated times read close to that host's host seconds.
  static constexpr double kReferenceSeconds = 2.0e-3;

  SpeedProbe();

  /// Runs the chase once; returns its seconds.
  double run();
  /// `raw` host seconds of a span that ran since the last run(), calibrated.
  double calibrate(double raw) const { return raw * kReferenceSeconds / last_; }
  /// Every reading so far.
  const std::vector<double>& readings() const { return readings_; }

 private:
  std::vector<std::uint32_t> next_;
  double last_ = kReferenceSeconds;
  std::vector<double> readings_;
};

/// Runs `f` between two readings of `probe` and returns its host seconds
/// calibrated by their mean: for a span longer than the probe spacing.
template <class F>
double calibrated_span(SpeedProbe& probe, F&& f) {
  const double before = probe.run();
  const Clock::time_point start = Clock::now();
  f();
  const double raw = seconds_since(start);
  const double after = probe.run();
  return raw * SpeedProbe::kReferenceSeconds * 2.0 / (before + after);
}

// --------------------------------------------------------------------- host

double peak_rss_mb();
/// Bytes of regular files under `dir` (0 when absent).
std::uint64_t directory_bytes(const std::string& dir);

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// An end-to-end metric: unit, direction and regression bound.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  bool higher_is_better;
  /// Share of the parent's median the metric may worsen by; for
  /// failed_arm_frac an absolute amount.
  double bound;
};
/// Every end-to-end metric, in report order.
const std::vector<MetricSpec>& end_to_end_specs();

// ---------------------------------------------------------------------- run

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  Scale scale = Scale::kFull;
  std::string out;         ///< result JSON path (empty: none)
  std::string trace_path;  ///< Chrome trace path; non-empty = traced run
  std::string workdir;     ///< spools and event files live under here
  std::string expected_dir;
  bool write_expected = false;
};

struct RunResult {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string mismatch;  ///< first mismatch, "" when none
  bool expected_checked = false;
  std::string outputs_digest;  ///< set_digest of sweep 0
  Metrics end_to_end;
  Metrics layers;
  std::size_t sweeps = 0;
  std::size_t interval_samples = 0;
  double tail_pct = 0.0;
  unsigned workers = 1;
  /// Speed-probe readings of the run and their median, and the median
  /// sweep's wall in host seconds, before calibration.
  std::size_t probe_readings = 0;
  double probe_s_median = 0.0;
  double raw_wall_s = 0.0;
};

RunResult run_workload(const RunOptions& options);

/// Writes the --out document.
void write_result_json(const std::string& path, const RunOptions& options,
                       const RunResult& result);

/// The benchmark contract line: {"correct", "attempted", "failed",
/// "metrics"} with the end-to-end metrics, or the per-layer ones when traced.
std::string contract_line(const RunResult& result, bool traced);

// ---------------------------------------------------------- compare/history

int compare_main(const std::string& parent_dir, const std::string& change_dir);
int history_main(const std::string& dir, const std::string& label);

// ------------------------------------------------------------------- layers

/// Everything the per-layer measurements need from the run's sweeps.
struct LayerInputs {
  const Workload* workload = nullptr;
  /// Spool directory holding every profile's resolved streams.
  std::string spool_dir;
  /// Results of one full sweep, in arm order.
  const std::vector<sim::ExperimentResult>* results = nullptr;
  /// Median cold spool resolve of the run (spooled workloads).
  double resolve_s = 0.0;
  std::string workdir;
};

/// Name and unit of every per-layer metric, in report order. A metric of a
/// layer the workload bypasses reads 0.
const std::vector<std::pair<std::string_view, std::string_view>>&
layer_specs();

/// Ladder, micro-replays of the shared levels, policy replays: stored into
/// `out` by metric name. Records its own spans.
void measure_layers(const LayerInputs& in, SpanLog& spans,
                    std::map<std::string, double>& out);

}  // namespace capart::e2e
