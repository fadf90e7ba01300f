#pragma once

/// \file benchmark_runner.hpp
/// The toolbox's measurement harness (Stage 2 of the PE process).
///
/// A `BenchmarkRunner` executes a kernel closure under a configurable
/// experiment design: warmup runs are discarded, the batch size is grown
/// until one batch exceeds a minimum measurable time (shielding against
/// timer quantization), and the requested number of repetitions is recorded
/// for statistical summary. The batch that ends calibration is already a
/// complete, correctly sized, timed batch, so it is recorded as the first
/// repetition instead of being run again — unless it is the attempt's very
/// first call (no warm-up, calibration done after one call), which is cold
/// and stays discarded. For the same reason that cold call never sizes a
/// batch: when it falls short of the minimum time, one warm call is timed
/// and the batch is projected from that. This is the behaviour students
/// must implement by hand in Assignment 1 before they may trust any
/// Roofline placement.
///
/// For unattended campaigns the runner is resilient (docs/robustness.md):
/// an optional wall-clock `deadline_seconds` stops a slow kernel or
/// calibration with a structured `pe::resilience::MeasurementError`
/// instead of letting it run on, and an optional `retry` policy re-measures
/// (with exponential backoff) when the sample's coefficient of variation
/// says the host was too noisy, recording how many attempts the number
/// cost. Every kernel call runs on the caller's thread, so a kernel may
/// capture its caller's locals by reference.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "perfeng/measure/statistics.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/resilience/retry.hpp"

namespace pe {

/// Experiment design knobs for one measurement.
struct MeasurementConfig {
  int warmup_runs = 2;         ///< discarded executions before timing
  /// Recorded, independently-timed batches. The batch that ends
  /// calibration is the first of them when a call of the attempt (a
  /// warm-up or an earlier calibration batch) came before it.
  int repetitions = 10;
  double min_batch_seconds = 1e-3;  ///< grow batch until this long
  std::size_t max_batch_iterations = 1u << 20;  ///< safety cap
  /// Wall-clock budget per attempt (warmup + calibration + repetitions);
  /// 0 means none. The runner checks it between kernel calls, after each
  /// warm-up call, calibration batch and timed repetition, and throws
  /// `pe::resilience::MeasurementError` (kind kTimeout) once it is spent,
  /// so an attempt overshoots by at most one call or one batch. A call
  /// that never returns is not interrupted.
  double deadline_seconds = 0.0;
  /// Retry-on-noise policy; max_attempts == 1 disables it.
  resilience::RetryPolicy retry;
};

/// Result of measuring one kernel configuration.
struct Measurement {
  std::string label;
  std::size_t batch_iterations = 1;   ///< kernel calls per timed batch
  std::vector<double> seconds;        ///< per-iteration time, one per repeat
  SampleSummary summary;              ///< summary of `seconds`
  int attempts = 1;    ///< measurement attempts consumed (retry-on-noise)
  bool stable = true;  ///< final sample CV within the retry policy threshold

  /// Best (minimum) per-iteration time — the standard "peak" estimator.
  [[nodiscard]] double best() const { return summary.min; }
  /// Median per-iteration time — the robust central estimator.
  [[nodiscard]] double typical() const { return summary.median; }
};

/// Runs kernels under a MeasurementConfig and summarizes the samples.
class BenchmarkRunner {
 public:
  BenchmarkRunner() = default;
  explicit BenchmarkRunner(MeasurementConfig config);

  [[nodiscard]] const MeasurementConfig& config() const { return config_; }

  /// Measure `kernel` (a void() closure). The kernel must perform the same
  /// work every call; use `do_not_optimize` inside it to keep results alive.
  /// Every kernel call passes the `kernel.call` fault site.
  [[nodiscard]] Measurement run(const std::string& label,
                                const std::function<void()>& kernel) const;

  /// Measure `kernel` with `setup` run, untimed, before every call (e.g. to
  /// re-randomize an input the kernel mutates). A setup per call fixes the
  /// batch at one call.
  [[nodiscard]] Measurement run_with_setup(
      const std::string& label, const std::function<void()>& setup,
      const std::function<void()>& kernel) const;

 private:
  class Deadline;  // one attempt's wall-clock budget (benchmark_runner.cpp)

  /// One measurement attempt, on the calling thread: warm-ups, batch
  /// calibration, timed repetitions. A non-empty `setup` runs before every
  /// call and fixes the batch at one call.
  [[nodiscard]] Measurement attempt(const std::string& label,
                                    const std::function<void()>& setup,
                                    const std::function<void()>& kernel) const;

  /// A timed batch: `iterations` kernel calls and the seconds they took.
  /// `first_call` marks the attempt's cold first call (no warm-up came
  /// before it), which is never a sample.
  struct Batch {
    std::size_t iterations;
    double seconds;
    bool first_call;
  };

  /// Batch-size calibration: grows the batch until one takes at least
  /// `min_batch_seconds` or reaches `max_batch_iterations`, and returns
  /// that accepted batch, size and time, so the caller can record it.
  /// Sizes are projected from a warm batch: a cold first call that falls
  /// short is followed by one warm call, not by a batch sized from it.
  /// Before each probe batch it predicts the batch's runtime from the
  /// previous one and aborts with a timeout error if the deadline cannot be
  /// met, so a slow kernel fails before the probe that would overrun the
  /// budget rather than after it.
  [[nodiscard]] Batch calibrate_batch(const std::string& label,
                                      const std::function<void()>& kernel,
                                      const Deadline& deadline) const;

  /// Retry-on-noise wrapper around attempt().
  [[nodiscard]] Measurement measure_with_policy(
      const std::string& label, const std::function<void()>& setup,
      const std::function<void()>& kernel) const;

  MeasurementConfig config_;
};

}  // namespace pe
