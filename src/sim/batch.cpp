#include "src/sim/batch.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "src/common/check.hpp"
#include "src/common/error.hpp"
#include "src/obs/events.hpp"
#include "src/obs/metrics.hpp"

namespace capart::sim {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One worker's queue of arm indices. Owner pops from the front, thieves
/// from the back, so a stolen arm is the one the owner would reach last.
struct WorkQueue {
  std::mutex mutex;
  std::deque<std::size_t> indices;
};

}  // namespace

ExperimentSpec& ExperimentSpec::add(std::string arm_name,
                                    ExperimentConfig config) {
  if (contains(arm_name)) {
    throw ConfigError("arm",
                      "duplicate arm name '" + arm_name + "' in spec");
  }
  arms.push_back({std::move(arm_name), std::move(config)});
  return *this;
}

bool ExperimentSpec::contains(std::string_view arm_name) const noexcept {
  for (const ExperimentArm& arm : arms) {
    if (arm.name == arm_name) return true;
  }
  return false;
}

std::string_view to_string(ArmStatus status) noexcept {
  switch (status) {
    case ArmStatus::kOk:
      return "ok";
    case ArmStatus::kFailed:
      return "failed";
    case ArmStatus::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

double BatchResult::serial_seconds() const noexcept {
  double total = 0.0;
  for (const ArmOutcome& arm : arms) total += arm.wall_seconds;
  return total;
}

double BatchResult::speedup() const noexcept {
  const double serial = serial_seconds();
  return (wall_seconds > 0.0 && serial > 0.0) ? serial / wall_seconds : 1.0;
}

std::size_t BatchResult::arms_failed() const noexcept {
  std::size_t failed = 0;
  for (const ArmOutcome& arm : arms) {
    if (!arm.ok()) ++failed;
  }
  return failed;
}

const ArmOutcome& BatchResult::outcome(std::string_view arm_name) const {
  for (const ArmOutcome& arm : arms) {
    if (arm.name == arm_name) return arm;
  }
  CAPART_CHECK(false, "unknown arm name in batch result");
}

const ExperimentResult& BatchResult::at(std::string_view arm_name) const {
  return outcome(arm_name).result;
}

unsigned default_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

BatchRunner::BatchRunner(unsigned jobs, BatchPolicy policy)
    : jobs_(jobs != 0 ? jobs : default_jobs()), policy_(policy) {}

void BatchRunner::run_indexed(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::vector<double>* wall_seconds) const {
  if (wall_seconds != nullptr) wall_seconds->assign(count, 0.0);
  if (count == 0) return;

  auto timed_body = [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    body(i);
    // Workers write disjoint slots; no synchronization needed.
    if (wall_seconds != nullptr) (*wall_seconds)[i] = seconds_since(start);
  };

  const auto workers =
      static_cast<std::size_t>(jobs_) < count ? jobs_ : static_cast<unsigned>(count);
  std::vector<std::exception_ptr> errors(count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        timed_body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    // Round-robin seeding spreads heterogeneous arm costs across workers;
    // stealing evens out whatever the seeding got wrong.
    std::vector<WorkQueue> queues(workers);
    for (std::size_t i = 0; i < count; ++i) {
      queues[i % workers].indices.push_back(i);
    }

    auto worker = [&](std::size_t self) {
      for (;;) {
        std::size_t index = count;  // sentinel: nothing claimed
        {
          std::lock_guard<std::mutex> lock(queues[self].mutex);
          if (!queues[self].indices.empty()) {
            index = queues[self].indices.front();
            queues[self].indices.pop_front();
          }
        }
        if (index == count) {
          for (std::size_t v = 0; v < workers && index == count; ++v) {
            if (v == self) continue;
            std::lock_guard<std::mutex> lock(queues[v].mutex);
            if (!queues[v].indices.empty()) {
              index = queues[v].indices.back();
              queues[v].indices.pop_back();
            }
          }
        }
        if (index == count) return;  // every queue is dry
        try {
          timed_body(index);
        } catch (...) {
          errors[index] = std::current_exception();
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker, w);
    for (std::thread& t : threads) t.join();
  }

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

BatchResult BatchRunner::run(const ExperimentSpec& spec) const {
  BatchResult batch;
  batch.spec_name = spec.name;
  batch.jobs = jobs_;
  batch.arms.resize(spec.arms.size());
  for (std::size_t i = 0; i < spec.arms.size(); ++i) {
    batch.arms[i].name = spec.arms[i].name;
  }

  // One token per arm: the owning worker rearms the deadline before each
  // attempt; fail-fast cancels every token from whichever worker failed
  // (cancel() is atomic and sticky across rearms).
  std::vector<CancelToken> tokens(spec.arms.size());
  std::atomic<bool> abort{false};
  // Arms not yet claimed by a worker — published as the "batch/queue_depth"
  // gauge so a daemon's admission controller reads the same backlog signal
  // the runner itself acts on.
  std::atomic<std::size_t> pending{spec.arms.size()};

  auto report_failure = [&](const ExperimentArm& arm, ArmOutcome& out) {
    if (obs::MetricsRegistry* metrics = arm.config.obs.metrics) {
      metrics->add("batch/arms_failed");
      if (out.retries > 0) metrics->add("batch/arm_retries", out.retries);
    }
    if (arm.config.obs.sink != nullptr) {
      arm.config.obs.sink->on_arm_failed(
          {arm.config.obs.run_name.empty() ? out.name : arm.config.obs.run_name,
           out.name, std::string(to_string(out.status)), out.error,
           out.retries});
      arm.config.obs.sink->flush();
    }
    if (policy_.fail_fast) {
      abort.store(true, std::memory_order_relaxed);
      for (CancelToken& token : tokens) token.cancel();
    }
  };

  auto run_arm = [&](std::size_t i) {
    const ExperimentArm& arm = spec.arms[i];
    ArmOutcome& out = batch.arms[i];
    const std::size_t left =
        pending.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (obs::MetricsRegistry* metrics = arm.config.obs.metrics) {
      metrics->set_gauge("batch/queue_depth", static_cast<double>(left));
    }
    if (policy_.fail_fast && abort.load(std::memory_order_relaxed)) {
      out.status = ArmStatus::kFailed;
      out.error = "skipped: batch cancelled (fail-fast)";
      if (obs::MetricsRegistry* metrics = arm.config.obs.metrics) {
        metrics->add("batch/arms_failed");
      }
      return;
    }
    const auto arm_start = std::chrono::steady_clock::now();
    ExperimentConfig config = arm.config;
    config.cancel = &tokens[i];
    for (std::uint32_t attempt = 0;; ++attempt) {
      tokens[i].rearm_deadline(policy_.arm_deadline_seconds);
      try {
        out.result = run_experiment(config);
        out.status = ArmStatus::kOk;
        out.retries = attempt;
        out.wall_seconds = seconds_since(arm_start);
        if (obs::MetricsRegistry* metrics = arm.config.obs.metrics) {
          metrics->add("batch/arms_completed");
          if (attempt > 0) metrics->add("batch/arm_retries", attempt);
          metrics->observe("batch/arm_wall_seconds", out.wall_seconds);
        }
        return;
      } catch (const CancelledError& error) {
        // Deadline expiries and fail-fast cancellations are terminal: a
        // deadline that expired once will expire again, and a cancelled
        // batch is already shutting down.
        out.status = error.deadline_expired() ? ArmStatus::kTimedOut
                                              : ArmStatus::kFailed;
        out.error = error.what();
        out.retries = attempt;
        break;
      } catch (const std::exception& error) {
        if (attempt < policy_.max_retries &&
            !(policy_.fail_fast && abort.load(std::memory_order_relaxed))) {
          continue;
        }
        out.status = ArmStatus::kFailed;
        out.error = error.what();
        out.retries = attempt;
        break;
      }
    }
    out.wall_seconds = seconds_since(arm_start);
    if (obs::MetricsRegistry* metrics = arm.config.obs.metrics) {
      metrics->observe("batch/arm_wall_seconds", out.wall_seconds);
    }
    report_failure(arm, out);
  };

  const auto start = std::chrono::steady_clock::now();
  run_indexed(spec.arms.size(), run_arm, nullptr);
  batch.wall_seconds = seconds_since(start);
  return batch;
}

}  // namespace capart::sim
