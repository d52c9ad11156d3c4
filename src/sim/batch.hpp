// Declarative experiment batches: an ExperimentSpec names a set of
// ExperimentConfig arms, a BatchRunner executes the arms on a work-stealing
// thread pool and collects results in spec order. Because run_experiment is
// a pure function of its config (every run owns its system, generators and
// RNG streams), batch results are bit-identical for any jobs count — that
// invariant is this layer's contract and is pinned by test_batch_runner.
//
// Fault isolation: a failing arm — a recoverable capart::Error thrown by
// config validation or injected by a test fault, or any std::exception — is
// contained in its own ArmOutcome (status, error message, retry count)
// instead of poisoning the batch; run() always returns every arm, and the
// surviving arms are bit-identical to a batch that never contained the
// poisoned one. BatchPolicy adds opt-in retries, per-arm wall-clock
// deadlines (enforced by a CancelToken the driver polls at interval
// boundaries) and fail-fast cancellation of the remaining arms.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/experiment.hpp"

namespace capart::sim {

/// One named experiment inside a spec.
struct ExperimentArm {
  std::string name;
  ExperimentConfig config;
};

/// A named, ordered set of experiment arms — the declarative description a
/// bench, tool or sweep hands to a BatchRunner. Arm names are unique keys
/// (benches use "profile/arm", e.g. "cg/model").
struct ExperimentSpec {
  std::string name;
  std::vector<ExperimentArm> arms;

  /// Appends an arm; throws ConfigError if `arm_name` is already present
  /// (reachable from e.g. `--policy=model,model`, so not an invariant).
  ExperimentSpec& add(std::string arm_name, ExperimentConfig config);

  bool contains(std::string_view arm_name) const noexcept;
};

/// Terminal state of one arm.
enum class ArmStatus : std::uint8_t {
  kOk,        ///< result is valid
  kFailed,    ///< threw (after exhausting retries) or was cancelled
  kTimedOut,  ///< stopped by its BatchPolicy deadline
};

std::string_view to_string(ArmStatus status) noexcept;

/// Failure-handling policy of a batch. The default matches the paper's
/// regeneration workflow: no retries, no deadline, run every arm to the end
/// regardless of sibling failures.
struct BatchPolicy {
  /// Re-runs of a failed arm before it is reported as kFailed. Timed-out and
  /// fail-fast-cancelled arms are never retried (a deadline that expired
  /// once will expire again; a cancelled batch is already shutting down).
  std::uint32_t max_retries = 0;
  /// Wall-clock budget per arm attempt; <= 0 disables. Enforced at interval
  /// boundaries, so an expired arm stops at a deterministic simulation point.
  double arm_deadline_seconds = 0.0;
  /// On the first arm failure, cancel the arms still running (they stop at
  /// their next interval boundary) and skip the ones not yet started.
  bool fail_fast = false;
};

/// One arm's result plus its own wall time and terminal status. `result` is
/// default-constructed (all-zero) unless status == kOk.
struct ArmOutcome {
  std::string name;
  ArmStatus status = ArmStatus::kOk;
  /// Failure/timeout message (empty when ok).
  std::string error;
  /// Attempts beyond the first that this arm consumed.
  std::uint32_t retries = 0;
  ExperimentResult result;
  /// Wall time across every attempt of this arm.
  double wall_seconds = 0.0;

  bool ok() const noexcept { return status == ArmStatus::kOk; }
};

/// All arm results, in the deterministic order the spec declared them.
struct BatchResult {
  std::string spec_name;
  unsigned jobs = 1;
  std::vector<ArmOutcome> arms;
  /// Wall time of the whole batch (concurrent execution).
  double wall_seconds = 0.0;

  /// Sum of per-arm wall times — the serial-equivalent cost.
  double serial_seconds() const noexcept;
  /// serial_seconds / wall_seconds; 1.0 for empty or instant batches.
  double speedup() const noexcept;

  /// Arms whose status is not kOk (failed + timed out).
  std::size_t arms_failed() const noexcept;
  bool all_ok() const noexcept { return arms_failed() == 0; }

  const ArmOutcome& outcome(std::string_view arm_name) const;
  const ExperimentResult& at(std::string_view arm_name) const;
};

/// Executor default when jobs == 0: hardware_concurrency, at least 1.
unsigned default_jobs() noexcept;

/// Work-stealing thread-pool executor over independent experiments. Each
/// worker owns a queue of arm indices and steals from the back of a victim's
/// queue once its own runs dry; results land in pre-assigned slots, so
/// output order never depends on scheduling.
class BatchRunner {
 public:
  /// `jobs` == 0 selects default_jobs().
  explicit BatchRunner(unsigned jobs = 0, BatchPolicy policy = {});

  unsigned jobs() const noexcept { return jobs_; }
  const BatchPolicy& policy() const noexcept { return policy_; }

  /// Runs every arm, containing per-arm failures (see ArmOutcome). Failed
  /// arms publish an ArmFailedEvent and count into "batch/arms_failed" /
  /// "batch/arm_retries" metrics through their arm's obs attachment. Every
  /// arm also feeds the "batch/queue_depth" gauge (arms not yet claimed by
  /// a worker) and the "batch/arm_wall_seconds" histogram — the shared
  /// backlog/latency source of truth for capart_serve's admission
  /// controller and capart_perfsmoke.
  BatchResult run(const ExperimentSpec& spec) const;

  /// Deterministic parallel map for work that is not an ExperimentConfig
  /// (e.g. co-scheduled runs): executes `tasks` under the same executor and
  /// returns their results in input order. Optionally reports per-task wall
  /// seconds through `wall_seconds`. Unlike run(), a throwing task is
  /// rethrown (first failure in index order) after the pool drains.
  template <class R>
  std::vector<R> map(std::vector<std::function<R()>> tasks,
                     std::vector<double>* wall_seconds = nullptr) const {
    std::vector<R> results(tasks.size());
    run_indexed(
        tasks.size(), [&](std::size_t i) { results[i] = tasks[i](); },
        wall_seconds);
    return results;
  }

 private:
  /// Runs body(0..count-1) across the pool; rethrows the first failure in
  /// index order after all workers have drained.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& body,
                   std::vector<double>* wall_seconds) const;

  unsigned jobs_;
  BatchPolicy policy_;
};

}  // namespace capart::sim
