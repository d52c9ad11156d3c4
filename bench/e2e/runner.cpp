// Runs one workload: a fixed number of sweeps over its arms, the output
// check, and the end-to-end metrics (plus, when traced, the
// per-layer metrics the sweeps themselves observe).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/obs/events.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/phase.hpp"

namespace capart::e2e {
namespace {

namespace fs = std::filesystem;

/// Cold set-ups per spooled run; setup_s takes their median.
constexpr int kColdSetups = 3;
/// Measured sweeps a run makes at least, so every slot's median has three
/// samples.
constexpr std::size_t kMinSweeps = 3;
/// Simulation between two speed probes inside one arm, on the baseline
/// host: short next to the host's slow spells (seconds), long next to the
/// interval after a probe, which refills the host caches the chase evicted.
constexpr double kProbeSpacingSeconds = 0.5;

/// Measured sweeps of each kind (untraced, traced) a full-scale run makes:
/// --seconds of sweeps at the workload's reference sweep time. It depends
/// on the workload and the budget only, so two commits compared with the
/// same budget take the same number of samples.
std::size_t measured_sweeps(const Workload& w, double seconds) {
  return std::max(kMinSweeps,
                  static_cast<std::size_t>(std::lround(seconds / w.sweep_seconds)));
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ------------------------------------------------------- timing decorators

struct FillStats {
  double seconds = 0.0;
  std::uint64_t ops = 0;
};

/// Times OpSource::fill (and next) of the source it wraps.
class TimedSource final : public trace::OpSource {
 public:
  TimedSource(std::unique_ptr<trace::OpSource> inner, FillStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  trace::NextOp next() override {
    const Clock::time_point start = Clock::now();
    const trace::NextOp op = inner_->next();
    stats_.seconds += seconds_since(start);
    ++stats_.ops;
    return op;
  }

  std::size_t fill(trace::NextOp* out, std::size_t n) override {
    const Clock::time_point start = Clock::now();
    const std::size_t got = inner_->fill(out, n);
    stats_.seconds += seconds_since(start);
    stats_.ops += got;
    return got;
  }

 private:
  std::unique_ptr<trace::OpSource> inner_;
  FillStats& stats_;
};

/// The op sources PreparedExperiment would build for `cfg` — spool replays
/// when it names a spool directory, live generators otherwise — each
/// wrapped in a TimedSource.
std::vector<std::unique_ptr<trace::OpSource>> timed_sources(
    const sim::ExperimentConfig& cfg, FillStats& stats) {
  std::vector<std::unique_ptr<trace::OpSource>> sources =
      sim::spool_sources(cfg, per_thread_work(cfg));
  if (sources.empty()) {
    const trace::BenchmarkProfile profile =
        trace::make_profile(cfg.profile, cfg.num_threads);
    const Rng root(cfg.seed);
    for (ThreadId t = 0; t < cfg.num_threads; ++t) {
      sources.push_back(std::make_unique<trace::PhasedGenerator>(
          trace::PhaseSchedule(profile.threads[t].phases), root.fork(t),
          sim::private_region_base(t), sim::shared_region_base()));
    }
  }
  for (std::unique_ptr<trace::OpSource>& source : sources) {
    source = std::make_unique<TimedSource>(std::move(source), stats);
  }
  return sources;
}

/// Thread-safe EventSink decorator: timestamps each arm's events and
/// forwards them to the JSONL sink. The batch workload's interval times,
/// arm spans and obs metrics come from these stamps. It also runs the speed
/// probes of the batch, on the worker threads: after an arm's manifest and
/// after every `every` of its intervals, each worker with a probe of its own.
class TimingSink final : public obs::EventSink {
 public:
  enum class Kind : std::uint8_t { kManifest, kInterval, kRunEnd, kOther };
  struct Stamp {
    Clock::time_point at;
    double forward_ns = 0.0;
    double probe_s = 0.0;  ///< the probe run after forwarding, 0 when none
    double scale = 1.0;    ///< calibrate() factor of the span that follows
    Kind kind = Kind::kOther;
    std::uint32_t lane = 0;  ///< 1-based worker index
  };

  TimingSink(obs::EventSink& inner, std::vector<SpeedProbe>& probes,
             std::uint32_t every)
      : inner_(inner), probes_(probes), every_(every) {}

  void on_manifest(const obs::ManifestEvent& e) override {
    forward(e.run, Kind::kManifest, [&] { inner_.on_manifest(e); });
  }
  void on_interval(const obs::IntervalEvent& e) override {
    forward(e.run, Kind::kInterval, [&] { inner_.on_interval(e); });
  }
  void on_repartition(const obs::RepartitionEvent& e) override {
    forward(e.run, Kind::kOther, [&] { inner_.on_repartition(e); });
  }
  void on_barrier_stall(const obs::BarrierStallEvent& e) override {
    forward(e.run, Kind::kOther, [&] { inner_.on_barrier_stall(e); });
  }
  void on_migration(const obs::ThreadMigrationEvent& e) override {
    forward(e.run, Kind::kOther, [&] { inner_.on_migration(e); });
  }
  void on_run_end(const obs::RunEndEvent& e) override {
    forward(e.run, Kind::kRunEnd, [&] { inner_.on_run_end(e); });
  }
  void on_arm_failed(const obs::ArmFailedEvent& e) override {
    forward(e.run, Kind::kOther, [&] { inner_.on_arm_failed(e); });
  }
  void flush() override { inner_.flush(); }

  /// Stamps per arm, each in emission order (an arm runs on one thread).
  std::map<std::string, std::vector<Stamp>> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(stamps_);
  }

 private:
  /// A worker thread. Only its own thread touches it once it exists.
  struct Lane {
    std::uint32_t index = 0;
    std::uint32_t intervals = 0;  ///< of the arm it runs
  };

  template <class Call>
  void forward(const std::string& run, Kind kind, Call&& call) {
    const Clock::time_point start = Clock::now();
    call();
    const double ns = ns_between(start, Clock::now());
    Lane* lane = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto [it, inserted] = lanes_.try_emplace(
          std::this_thread::get_id(),
          Lane{static_cast<std::uint32_t>(lanes_.size() + 1), 0});
      lane = &it->second;
    }
    if (lane->index > probes_.size()) {
      throw Error("timing sink: more worker threads than speed probes");
    }
    SpeedProbe& probe = probes_[lane->index - 1];
    if (kind == Kind::kManifest) lane->intervals = 0;
    double probe_s = 0.0;
    if (kind == Kind::kManifest ||
        (kind == Kind::kInterval && ++lane->intervals % every_ == 0)) {
      const Clock::time_point probe_start = Clock::now();
      probe.run();
      probe_s = seconds_since(probe_start);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stamps_[run].push_back(
        {start, ns, probe_s, probe.calibrate(1.0), kind, lane->index});
  }

  obs::EventSink& inner_;
  std::vector<SpeedProbe>& probes_;
  const std::uint32_t every_;
  std::mutex mutex_;
  std::map<std::string, std::vector<Stamp>> stamps_;  // guarded
  std::map<std::thread::id, Lane> lanes_;             // guarded
};

// ------------------------------------------------------------------ sweeps

/// One pass over every arm. Times are calibrated seconds (SpeedProbe) except
/// the raw ones, which the per-layer shares set against the raw op-source
/// and sink timings.
struct Sweep {
  bool traced = false;
  double acquire_s = 0.0;  ///< warm spool acquisition
  double wall_s = 0.0;     ///< the measured phase: arms' advance + finalize,
                           ///< or the batch wall
  double wall_raw_s = 0.0;
  std::vector<double> interval_s;
  std::vector<double> arm_s;      ///< each arm's whole wall
  std::vector<double> prepare_s;
  std::vector<double> finalize_s;
  double advance_raw_s = 0.0;  ///< advance calls; batch: arm walls
  double sink_raw_s = 0.0;
  std::vector<double> event_ns;
  FillStats fill;
  std::uint64_t events = 0;
  std::uint64_t event_bytes = 0;
  std::uint64_t accesses = 0;
  std::uint64_t instructions = 0;
  std::uint64_t failed = 0;  ///< arms that threw
  DigestSet digests;
  /// Full results, kept for sweep 0 only so that memory does not grow with
  /// the number of sweeps a run fits in.
  bool keep_results = false;
  std::vector<sim::ExperimentResult> results;
};

void account(Sweep& s, const std::string& arm, sim::ExperimentResult result) {
  s.accesses += result.l2_stats.total().accesses;
  s.instructions += result.outcome.instructions_retired;
  s.digests.push_back({arm, digest_result(result)});
  if (s.keep_results) s.results.push_back(std::move(result));
}

/// Acquires every profile's spool entries (resolving what is missing);
/// returns the raw seconds.
double acquire_spools(const Workload& w, SpanLog& spans) {
  const Clock::time_point start = Clock::now();
  for (const sim::ExperimentConfig& cfg : w.profiles) {
    const SpanLog::Scope span = spans.scope("spool.acquire", cfg.profile);
    (void)sim::spool_sources(cfg, per_thread_work(cfg));
  }
  return seconds_since(start);
}

/// Intervals of one arm between two speed probes: about
/// kProbeSpacingSeconds of simulation on the baseline host.
std::uint32_t probe_every(const Workload& w) {
  const double interval_s =
      w.sweep_seconds * w.workers /
      static_cast<double>(w.arms.size() * w.arms.front().config.num_intervals);
  return static_cast<std::uint32_t>(
      std::max(1L, std::lround(kProbeSpacingSeconds / interval_s)));
}

/// Arms in order on this thread, each as PreparedExperiment +
/// advance_interval() + finalize() with every call timed. The probe runs
/// before each arm and after every probe_every() intervals, and each call is
/// calibrated by the reading before it.
void run_serial(const Workload& w, Sweep& s, SpanLog& spans,
                SpeedProbe& probe) {
  const std::uint32_t every = probe_every(w);
  for (const sim::ExperimentArm& arm : w.arms) {
    const SpanLog::Scope arm_span = spans.scope("arm", arm.name);
    try {
      probe.run();
      Clock::time_point start = Clock::now();
      std::unique_ptr<sim::PreparedExperiment> prepared;
      {
        const SpanLog::Scope span = spans.scope("experiment.prepare", arm.name);
        prepared = std::make_unique<sim::PreparedExperiment>(
            arm.config, s.traced ? timed_sources(arm.config, s.fill)
                                 : std::vector<std::unique_ptr<trace::OpSource>>{});
      }
      const double prepare = probe.calibrate(seconds_since(start));
      double run = 0.0;  // advance + finalize
      double run_raw = 0.0;
      // The call that returns false only releases the final barrier; it
      // ends no interval, so it is timed into the wall but not sampled.
      bool more = true;
      for (std::uint32_t i = 1; more; ++i) {
        double raw = 0.0;
        {
          const SpanLog::Scope span = spans.scope("driver.interval", arm.name);
          start = Clock::now();
          more = prepared->advance_interval();
          raw = seconds_since(start);
        }
        const double calibrated = probe.calibrate(raw);
        run_raw += raw;
        run += calibrated;
        if (more) s.interval_s.push_back(calibrated);
        if (more && i % every == 0) probe.run();
      }
      sim::ExperimentResult result;
      start = Clock::now();
      {
        const SpanLog::Scope span = spans.scope("experiment.finalize", arm.name);
        result = prepared->finalize();
      }
      const double finalize_raw = seconds_since(start);
      const double finalize = probe.calibrate(finalize_raw);
      run += finalize;
      s.wall_raw_s += run_raw + finalize_raw;
      s.prepare_s.push_back(prepare);
      s.finalize_s.push_back(finalize);
      s.arm_s.push_back(prepare + run);
      s.wall_s += run;
      s.advance_raw_s += run_raw;
      account(s, arm.name, std::move(result));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "arm %s failed: %s\n", arm.name.c_str(),
                   error.what());
      ++s.failed;
    }
  }
}

/// Arms through a BatchRunner with a timed JSONL sink attached. The sink's
/// stamps split each arm, from its manifest to its run end, into spans
/// between consecutive events; each span leaves out the probe run at its
/// start and is calibrated by that worker's last reading. The batch's wall
/// is its busiest worker's calibrated time.
void run_batch(const Workload& w, Sweep& s, SpanLog& spans,
               const std::string& events_path,
               std::vector<SpeedProbe>& probes) {
  obs::JsonlSink jsonl(events_path);
  TimingSink sink(jsonl, probes, probe_every(w));
  sim::ExperimentSpec spec;
  spec.name = w.name;
  for (const sim::ExperimentArm& arm : w.arms) {
    sim::ExperimentConfig cfg = arm.config;
    cfg.obs.sink = &sink;
    cfg.obs.run_name = arm.name;
    spec.add(arm.name, std::move(cfg));
  }
  const sim::BatchRunner runner(w.workers);
  sim::BatchResult batch;
  {
    const SpanLog::Scope span = spans.scope("batch.run", w.name);
    batch = runner.run(spec);
  }
  jsonl.flush();
  for (sim::ArmOutcome& arm : batch.arms) {
    if (!arm.ok()) {
      std::fprintf(stderr, "arm %s %s: %s\n", arm.name.c_str(),
                   std::string(sim::to_string(arm.status)).c_str(),
                   arm.error.c_str());
      ++s.failed;
      continue;
    }
    account(s, arm.name, std::move(arm.result));
  }
  std::map<std::uint32_t, std::pair<double, double>> busy;  // lane: cal, raw
  double probe_s = 0.0;
  for (auto& [run, stamps] : sink.take()) {
    double at = 0.0;  // calibrated seconds since the manifest
    double at_raw = 0.0;
    double last_interval = -1.0;
    const TimingSink::Stamp* manifest = nullptr;
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      const TimingSink::Stamp& stamp = stamps[i];
      s.event_ns.push_back(stamp.forward_ns);
      s.sink_raw_s += stamp.forward_ns * 1e-9;
      probe_s += stamp.probe_s;
      ++s.events;
      if (i > 0) {
        const TimingSink::Stamp& prev = stamps[i - 1];
        const double raw =
            std::chrono::duration<double>(stamp.at - prev.at).count() -
            prev.probe_s;
        at += raw * prev.scale;
        at_raw += raw;
      }
      if (stamp.kind == TimingSink::Kind::kManifest) manifest = &stamp;
      if (stamp.kind == TimingSink::Kind::kInterval) {
        // An interval's time is the gap between consecutive interval
        // events; the first interval also holds the arm's preparation, so
        // it is not sampled.
        if (last_interval >= 0.0) s.interval_s.push_back(at - last_interval);
        last_interval = at;
      }
      if (stamp.kind == TimingSink::Kind::kRunEnd && manifest != nullptr) {
        spans.add("arm", run, manifest->at, stamp.at, stamp.lane);
        s.arm_s.push_back(at);
        busy[stamp.lane].first += at;
        busy[stamp.lane].second += at_raw;
      }
    }
  }
  for (const auto& [lane, seconds] : busy) {
    s.wall_s = std::max(s.wall_s, seconds.first);
    s.wall_raw_s = std::max(s.wall_raw_s, seconds.second);
  }
  s.advance_raw_s = batch.serial_seconds() - probe_s;
  s.event_bytes = fs::file_size(events_path);
}

/// `probes` holds one probe per host thread the workload runs on; the first
/// is this thread's.
Sweep run_sweep(const Workload& w, bool traced, bool keep_results,
                SpanLog& spans, const std::string& root,
                std::vector<SpeedProbe>& probes) {
  Sweep s;
  s.traced = traced;
  s.keep_results = keep_results;
  const SpanLog::Scope span =
      spans.scope(traced ? "sweep.traced" : "sweep", w.name);
  if (w.spooled) {
    s.acquire_s =
        calibrated_span(probes.front(), [&] { (void)acquire_spools(w, spans); });
  }
  if (w.batch) {
    run_batch(w, s, spans, root + "/events.jsonl", probes);
  } else {
    run_serial(w, s, spans, probes.front());
  }
  return s;
}

/// Re-runs one arm through the other trace path — live generators for a
/// spooled or batched arm, a fresh spool for a live one — which must
/// reproduce the sweeps' digest bit for bit.
ArmDigest cross_path_digest(const sim::ExperimentArm& arm, bool spooled,
                            const std::string& root, SpanLog& spans) {
  sim::ExperimentConfig cfg = arm.config;
  cfg.trace_spool_dir = spooled ? "" : root + "/crosscheck";
  if (!spooled) fs::create_directories(cfg.trace_spool_dir);
  const SpanLog::Scope span = spans.scope("crosscheck", arm.name);
  return digest_result(sim::run_experiment(cfg));
}

template <class F>
std::vector<double> collect(const std::vector<const Sweep*>& sweeps, F f) {
  std::vector<double> out;
  for (const Sweep* s : sweeps) out.push_back(f(*s));
  return out;
}

std::vector<double> pool(const std::vector<const Sweep*>& sweeps,
                         std::vector<double> Sweep::*series) {
  std::vector<double> out;
  for (const Sweep* s : sweeps) {
    out.insert(out.end(), (s->*series).begin(), (s->*series).end());
  }
  return out;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Element-wise median over sweeps of a per-arm or per-interval series:
/// each slot's typical time in the run.
std::vector<double> slot_medians(const std::vector<const Sweep*>& sweeps,
                                 std::vector<double> Sweep::*series) {
  std::vector<double> out = sweeps.front()->*series;
  std::vector<double> slot;
  for (std::size_t i = 0; i < out.size(); ++i) {
    slot.clear();
    for (const Sweep* s : sweeps) {
      const std::vector<double>& v = s->*series;
      if (v.size() == out.size()) slot.push_back(v[i]);  // else an arm failed
    }
    out[i] = median(slot);
  }
  return out;
}

/// wall_s: the median sweep's wall.
double median_wall(const std::vector<const Sweep*>& sweeps) {
  return median(collect(sweeps, [](const Sweep& s) { return s.wall_s; }));
}

/// Counts the arm runs of every sweep and the cross-path re-run, checks
/// them against the committed digests (or, when the seed has none, against
/// sweep 0) and writes the digests when asked to.
void check_outputs(const Workload& w, const RunOptions& opt,
                   const std::vector<Sweep>& sweeps, const std::string& root,
                   SpanLog& spans, RunResult& r) {
  const DigestSet& reference = sweeps.front().digests;
  r.outputs_digest = set_digest(reference);
  const std::string expected_file =
      expected_path(opt.expected_dir, opt.seed, opt.scale);
  const std::optional<DigestSet> expected =
      opt.write_expected ? std::nullopt
                         : load_expected(expected_file, w.digest_set);
  r.expected_checked = expected.has_value();
  const DigestSet& truth = expected ? *expected : reference;
  const auto check = [&](const DigestSet& got, const char* what) {
    r.failed += count_mismatches(truth, got);
    if (r.mismatch.empty()) {
      const std::string m = first_mismatch(truth, got);
      if (!m.empty()) r.mismatch = what + m;
    }
  };
  for (const Sweep& s : sweeps) {
    r.attempted += w.arms.size();
    r.failed += s.failed;
    check(s.digests, "");
  }
  const std::size_t k = static_cast<std::size_t>(opt.seed % w.arms.size());
  ++r.attempted;
  check({{w.arms[k].name,
          cross_path_digest(w.arms[k], w.spooled || w.batch, root, spans)}},
        "cross-path ");
  r.correct = r.failed == 0;
  if (!opt.write_expected) return;
  if (!r.correct) {
    throw Error("not writing " + expected_file +
                ": the run's outputs disagree (" + r.mismatch + ")");
  }
  store_expected(expected_file, opt.seed, w.digest_set, reference);
  std::fprintf(stderr, "wrote digest set %s to %s\n", w.digest_set.c_str(),
               expected_file.c_str());
}

/// Per-layer metrics the traced sweeps observe themselves, plus the exact
/// simulated statistics of sweep 0. Shares of the raw advance time use raw
/// seconds throughout; the other times are calibrated.
std::map<std::string, double> sweep_layers(
    const Workload& w, const std::vector<const Sweep*>& traced,
    const std::vector<const Sweep*>& untraced, const Sweep& reference) {
  std::map<std::string, double> m;
  const auto med = [&](auto f) { return median(collect(traced, f)); };
  const Sweep& one = *traced.front();
  const double accesses = static_cast<double>(one.accesses);
  const double fill_s = med([](const Sweep& s) { return s.fill.seconds; });
  const double advance_s = med([](const Sweep& s) { return s.advance_raw_s; });
  const double sink_s = med([](const Sweep& s) { return s.sink_raw_s; });

  m["trace.ops"] = static_cast<double>(one.fill.ops);
  if (one.fill.ops > 0) {
    m[w.spooled ? "spool.fill_ns_per_op" : "trace.fill_ns_per_op"] =
        fill_s * 1e9 / static_cast<double>(one.fill.ops);
  }
  if (!w.spooled) m["trace.fill_frac"] = fill_s / advance_s;
  m["experiment.prepare_ms"] = median(pool(traced, &Sweep::prepare_s)) * 1e3;
  m["experiment.finalize_ms"] = median(pool(traced, &Sweep::finalize_s)) * 1e3;
  const std::vector<double> intervals = slot_medians(traced, &Sweep::interval_s);
  m["driver.interval_ms_p50"] = percentile(intervals, 50.0) * 1e3;
  m["driver.interval_ms_tail"] =
      percentile(intervals, tail_percentile(intervals.size())) * 1e3;
  // The batch runner hides advance_interval, so on the batch workload the
  // driver's share is each arm's whole wall.
  m["driver.self_ns_per_access"] = (advance_s - fill_s - sink_s) * 1e9 / accesses;
  m["obs.events"] = static_cast<double>(one.events);
  m["obs.bytes"] = static_cast<double>(one.event_bytes);
  m["obs.event_ns_p50"] = median(pool(traced, &Sweep::event_ns));

  const double workers = static_cast<double>(w.workers);
  if (w.batch) {
    m["batch.efficiency"] = med([&](const Sweep& s) {
      return sum(s.arm_s) / (s.wall_s * workers);
    });
    m["batch.straggler_s"] = med([&](const Sweep& s) {
      return s.wall_s - sum(s.arm_s) / workers;
    });
  } else {
    m["batch.efficiency"] = 1.0;  // one host thread, never idle
  }
  const std::vector<double> arm_s = slot_medians(traced, &Sweep::arm_s);
  m["batch.arm_s_p50"] = percentile(arm_s, 50.0);
  m["batch.arm_s_tail"] = percentile(arm_s, tail_percentile(arm_s.size()));
  m["tracing.overhead_frac"] = median_wall(traced) / median_wall(untraced) - 1.0;

  double cycles = 0.0;
  double l2_accesses = 0.0;
  double l2_misses = 0.0;
  std::map<std::string, std::pair<double, double>> model_vs_shared;
  for (std::size_t k = 0; k < reference.results.size(); ++k) {
    const sim::ExperimentResult& res = reference.results[k];
    const auto c = static_cast<double>(res.outcome.total_cycles);
    cycles += c;
    l2_accesses += static_cast<double>(res.l2_stats.total().accesses);
    l2_misses += static_cast<double>(res.l2_stats.total().misses);
    const std::string& name = reference.digests[k].arm;
    const std::string profile = name.substr(0, name.find('/'));
    const std::string arm = name.substr(name.find('/') + 1);
    if (arm == "model") model_vs_shared[profile].first = c;
    if (arm == "shared") model_vs_shared[profile].second = c;
  }
  m["model.cycles_total"] = cycles;
  m["model.l2_miss_ratio"] = l2_misses / l2_accesses;
  double gain = 0.0;
  double gains = 0.0;
  for (const auto& [profile, cycles_of] : model_vs_shared) {
    const auto [model, shared] = cycles_of;
    if (model > 0.0 && shared > 0.0) {
      gain += (shared - model) / shared * 100.0;
      gains += 1.0;
    }
  }
  m["model.gain_vs_shared_pct"] = gains > 0.0 ? gain / gains : 0.0;
  return m;
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  Workload w = make_workload(opt.workload, opt.seed, opt.scale);
  const bool traced = !opt.trace_path.empty();
  const bool smoke = opt.scale == Scale::kSmoke;
  SpanLog spans(traced);
  const ScratchDir scratch(opt.workdir + "/" + w.name + "-" +
                           std::to_string(::getpid()));
  const std::string& root = scratch.path;
  // One speed probe per host thread the workload runs on.
  std::vector<SpeedProbe> probes(w.workers);

  // Spooled workloads resolve their streams cold into a fresh directory,
  // which the sweeps then replay.
  std::vector<double> cold_resolves;
  std::vector<double> cold_resolves_raw;
  const auto cold_setup = [&](int k) {
    const std::string dir = root + "/spool" + std::to_string(k);
    fs::create_directories(dir);
    set_spool_dir(w, dir);
    const SpanLog::Scope span = spans.scope("setup.cold", w.name);
    double raw = 0.0;
    cold_resolves.push_back(calibrated_span(
        probes.front(), [&] { raw = acquire_spools(w, spans); }));
    cold_resolves_raw.push_back(raw);
    return dir;
  };
  const std::string spool_dir = w.spooled ? cold_setup(0) : "";

  // One untimed run of the first arm takes the process's first-touch page
  // faults and code paging. The measured sweeps follow; a traced run
  // alternates untraced and traced ones, as many of each, so the tracing
  // overhead is measured on the same host state. A smoke run makes one
  // sweep.
  if (!smoke) {
    const SpanLog::Scope span = spans.scope("warmup", w.arms.front().name);
    (void)sim::run_experiment(w.arms.front().config);
  }
  const std::size_t per_kind = smoke ? 1 : measured_sweeps(w, opt.seconds);
  std::vector<Sweep> sweeps;
  for (std::size_t i = 0; i < (traced ? 2 : 1) * per_kind; ++i) {
    sweeps.push_back(
        run_sweep(w, traced && i % 2 == 1, i == 0, spans, root, probes));
  }
  const double rss_mb = peak_rss_mb();

  // The other cold set-ups come after the memory reading: a set-up that is
  // never replayed still has part of its files mapped by the kernel's
  // fault-around, by an amount that varies from run to run.
  for (int k = 1; w.spooled && !smoke && k < kColdSetups; ++k) {
    fs::remove_all(cold_setup(k));
  }
  if (w.spooled) set_spool_dir(w, spool_dir);

  RunResult r;
  r.workload = w.name;
  r.workers = w.workers;
  r.sweeps = sweeps.size();
  check_outputs(w, opt, sweeps, root, spans, r);

  std::vector<const Sweep*> measured;
  std::vector<const Sweep*> traced_sweeps;
  for (const Sweep& s : sweeps) {
    (s.traced ? traced_sweeps : measured).push_back(&s);
  }
  std::vector<double> readings;
  for (const SpeedProbe& probe : probes) {
    readings.insert(readings.end(), probe.readings().begin(),
                    probe.readings().end());
  }
  r.probe_readings = readings.size();
  r.probe_s_median = median(readings);
  r.raw_wall_s =
      median(collect(measured, [](const Sweep& s) { return s.wall_raw_s; }));

  const Sweep& any = *measured.front();
  const double wall = median_wall(measured);
  const std::vector<double> intervals =
      slot_medians(measured, &Sweep::interval_s);
  r.interval_samples = intervals.size();
  r.tail_pct = tail_percentile(intervals.size());
  const std::map<std::string, double> e2e = {
      // The cold resolve plus a sweep's spool acquisition and arm
      // preparation, each a median (the batch runner hides preparation
      // inside its arms).
      {"setup_s",
       median(cold_resolves) +
           median(collect(measured, [](const Sweep& s) { return s.acquire_s; })) +
           sum(slot_medians(measured, &Sweep::prepare_s))},
      {"wall_s", wall},
      {"accesses_per_s", static_cast<double>(any.accesses) / wall},
      {"interval_ms_p50", percentile(intervals, 50.0) * 1e3},
      {"interval_ms_tail", percentile(intervals, r.tail_pct) * 1e3},
      {"peak_rss_mb", rss_mb},
      {"disk_mb",
       static_cast<double>(directory_bytes(spool_dir)) / (1024.0 * 1024.0)},
      {"failed_arm_frac",
       static_cast<double>(r.failed) / static_cast<double>(r.attempted)},
      {"sim_minstr_per_s", static_cast<double>(any.instructions) / wall / 1e6},
  };
  for (const MetricSpec& spec : end_to_end_specs()) {
    r.end_to_end.push_back({std::string(spec.name),
                            e2e.at(std::string(spec.name)),
                            std::string(spec.unit)});
  }
  if (!traced) return r;

  std::map<std::string, double> layer =
      sweep_layers(w, traced_sweeps, measured, sweeps.front());
  // Raw, like the generation-only passes it is split against.
  const double resolve_s = median(cold_resolves_raw);
  if (w.spooled) {
    layer["spool.resolve_s"] = resolve_s;
    layer["spool.bytes"] = static_cast<double>(directory_bytes(spool_dir));
  }
  LayerInputs in;
  in.workload = &w;
  in.spool_dir = spool_dir;
  in.results = &sweeps.front().results;
  in.resolve_s = resolve_s;
  in.workdir = root;
  measure_layers(in, spans, layer);

  for (const auto& [name, unit] : layer_specs()) {
    const auto it = layer.find(std::string(name));
    double value = it == layer.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    r.layers.push_back({std::string(name), value, std::string(unit)});
  }
  spans.write_chrome_trace(opt.trace_path);
  return r;
}

}  // namespace capart::e2e
