#include "perfeng/measure/benchmark_runner.hpp"

#include <optional>

#include "perfeng/common/error.hpp"
#include "perfeng/common/fault_hook.hpp"
#include "perfeng/resilience/measurement_error.hpp"

namespace pe {

using resilience::FailureKind;
using resilience::MeasurementError;

namespace {

/// Seconds taken by `calls` consecutive calls of `kernel`, each passing the
/// `kernel.call` fault site, between two reads of one timer. Calibration,
/// the timed repetitions and (discarding the time) the warm-ups all call
/// the kernel through here, so every sample comes from the same loop.
double time_batch(const std::function<void()>& kernel, std::size_t calls) {
  const WallTimer t;
  for (std::size_t i = 0; i < calls; ++i) {
    fault_point(fault_sites::kKernelCall);
    kernel();
  }
  return t.elapsed();
}

}  // namespace

/// One attempt's wall-clock budget. The runner reads it only between
/// kernel calls, never inside a timed region, and a budget of 0 reads no
/// clock at all.
class BenchmarkRunner::Deadline {
 public:
  Deadline(double budget_seconds, const std::string& label)
      : budget_(budget_seconds), label_(label) {
    if (active()) timer_.emplace();
  }

  [[nodiscard]] bool active() const { return budget_ > 0.0; }

  /// Seconds since the attempt started; only when active().
  [[nodiscard]] double elapsed() const { return timer_->elapsed(); }

  /// Throw a kTimeout error once the budget is spent; `after` names the
  /// call that spent it.
  void check(const char* after) const {
    if (!active()) return;
    const double spent = timer_->elapsed();
    if (spent < budget_) return;
    throw MeasurementError(FailureKind::kTimeout, label_, /*attempts=*/1,
                           spent,
                           "wall-clock deadline of " + std::to_string(budget_) +
                               " s spent after " + after);
  }

 private:
  double budget_;
  const std::string& label_;
  std::optional<WallTimer> timer_;
};

BenchmarkRunner::BenchmarkRunner(MeasurementConfig config)
    : config_(config) {
  PE_REQUIRE(config_.warmup_runs >= 0, "negative warmup count");
  PE_REQUIRE(config_.repetitions >= 1, "need at least one repetition");
  PE_REQUIRE(config_.min_batch_seconds > 0.0, "batch time must be positive");
  PE_REQUIRE(config_.max_batch_iterations >= 1, "batch cap must be positive");
  PE_REQUIRE(config_.deadline_seconds >= 0.0,
             "deadline must be non-negative");
  resilience::validate(config_.retry);
}

BenchmarkRunner::Batch BenchmarkRunner::calibrate_batch(
    const std::string& label, const std::function<void()>& kernel,
    const Deadline& deadline) const {
  // Start at one call and jump to the size projected to fill
  // min_batch_seconds (with 1.2x headroom, at least doubling) until one
  // batch takes that long or reaches the cap. With no warm-up the first
  // call is cold (caches, page tables, branch history): projected from, it
  // undersizes the next batch, which then falls short and is thrown away.
  // So a short first call is followed by one warm call, and the projection
  // starts from that.
  bool first_call = config_.warmup_runs == 0;
  std::size_t batch = 1;
  for (;;) {
    const double elapsed = time_batch(kernel, batch);
    deadline.check("a calibration batch");
    if (elapsed >= config_.min_batch_seconds ||
        batch >= config_.max_batch_iterations) {
      return {batch, elapsed, first_call};
    }
    // Jump straight to the projected size when we have signal, else double.
    std::size_t next;
    if (first_call) {
      next = 1;
      first_call = false;
    } else if (elapsed > 0.0) {
      const double scale = config_.min_batch_seconds / elapsed;
      const auto projected =
          static_cast<std::size_t>(static_cast<double>(batch) * scale * 1.2) +
          1;
      next = std::min(std::max(projected, batch * 2),
                      config_.max_batch_iterations);
    } else {
      next = std::min(batch * 2, config_.max_batch_iterations);
    }
    // Predictive deadline check: refuse to launch a probe batch whose
    // projected runtime would blow the budget, so a slow kernel chasing an
    // unreachable min_batch_seconds fails now rather than one long batch
    // later.
    if (deadline.active() && elapsed > 0.0) {
      const double per_iteration = elapsed / static_cast<double>(batch);
      const double predicted =
          per_iteration * static_cast<double>(next);
      if (deadline.elapsed() + predicted > config_.deadline_seconds) {
        throw MeasurementError(
            FailureKind::kTimeout, label, /*attempts=*/1, deadline.elapsed(),
            "batch calibration at size " + std::to_string(batch) +
                " projects " + std::to_string(predicted) +
                " s for the next probe, exceeding the deadline");
      }
    }
    batch = next;
  }
}

Measurement BenchmarkRunner::attempt(
    const std::string& label, const std::function<void()>& setup,
    const std::function<void()>& kernel) const {
  const Deadline deadline(config_.deadline_seconds, label);
  for (int i = 0; i < config_.warmup_runs; ++i) {
    if (setup) setup();
    (void)time_batch(kernel, 1);
    deadline.check("a warm-up call");
  }

  Measurement m;
  m.label = label;
  const auto repetitions = static_cast<std::size_t>(config_.repetitions);
  m.seconds.reserve(repetitions);
  const auto record = [&m](double batch_seconds) {
    m.seconds.push_back(fault_value(
        fault_sites::kKernelCall,
        batch_seconds / static_cast<double>(m.batch_iterations)));
  };
  // Setup must precede every timed execution (e.g. re-randomizing an input
  // that the kernel mutates), so with one the batch is a single call and
  // there is no calibration.
  if (!setup) {
    const Batch accepted = calibrate_batch(label, kernel, deadline);
    m.batch_iterations = accepted.iterations;
    // The accepted batch is a full timed batch: record it as the first
    // repetition when a call of this attempt preceded it (a warm-up, or an
    // earlier calibration batch). Otherwise it is the attempt's cold first
    // call and stays discarded. It already passed its deadline check; it is
    // not run again.
    if (!accepted.first_call) record(accepted.seconds);
  }
  while (m.seconds.size() < repetitions) {
    if (setup) setup();
    record(time_batch(kernel, m.batch_iterations));
    deadline.check("a timed repetition");
  }
  m.summary = summarize(m.seconds);
  return m;
}

Measurement BenchmarkRunner::measure_with_policy(
    const std::string& label, const std::function<void()>& setup,
    const std::function<void()>& kernel) const {
  const resilience::RetryPolicy& retry = config_.retry;
  const WallTimer total;
  Measurement m;
  // The schedule reproduces backoff_seconds() exactly for un-jittered
  // policies and adds seeded decorrelated jitter when asked for.
  resilience::BackoffSchedule backoff(retry);
  for (int attempt_no = 1;; ++attempt_no) {
    if (attempt_no > 1) resilience::sleep_for_seconds(backoff.next());
    try {
      m = attempt(label, setup, kernel);
    } catch (const MeasurementError& e) {
      // Re-tag deadline and calibration aborts with the true attempt count.
      throw MeasurementError(e.kind(), label, attempt_no, total.elapsed(),
                             e.detail());
    }
    m.attempts = attempt_no;
    m.stable =
        retry.max_attempts <= 1 || m.summary.cv <= retry.cv_threshold;
    if (m.stable) return m;
    if (attempt_no >= retry.max_attempts) {
      if (retry.fail_on_unstable) {
        throw MeasurementError(
            FailureKind::kUnstable, label, attempt_no, total.elapsed(),
            "sample CV " + std::to_string(m.summary.cv) +
                " still above threshold " +
                std::to_string(retry.cv_threshold));
      }
      return m;  // degrade: hand back the last attempt, flagged unstable
    }
  }
}

Measurement BenchmarkRunner::run(const std::string& label,
                                 const std::function<void()>& kernel) const {
  PE_REQUIRE(static_cast<bool>(kernel), "null kernel");
  return measure_with_policy(label, {}, kernel);
}

Measurement BenchmarkRunner::run_with_setup(
    const std::string& label, const std::function<void()>& setup,
    const std::function<void()>& kernel) const {
  PE_REQUIRE(static_cast<bool>(setup), "null setup");
  PE_REQUIRE(static_cast<bool>(kernel), "null kernel");
  return measure_with_policy(label, setup, kernel);
}

}  // namespace pe
