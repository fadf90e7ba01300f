// Tests for the resilient BenchmarkRunner: the per-attempt deadline checked
// on the caller's thread, predictive calibration abort, and retry-on-noise.
#include "perfeng/measure/benchmark_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "perfeng/resilience/fault_injection.hpp"
#include "perfeng/resilience/measurement_error.hpp"

namespace {

using pe::BenchmarkRunner;
using pe::MeasurementConfig;
using pe::resilience::FailureKind;
using pe::resilience::FaultKind;
using pe::resilience::FaultPlan;
using pe::resilience::MeasurementError;
using pe::resilience::ScopedFaultInjection;

MeasurementConfig fast_config() {
  MeasurementConfig cfg;
  cfg.warmup_runs = 0;
  cfg.repetitions = 4;
  cfg.min_batch_seconds = 1e-9;
  return cfg;
}

TEST(ResilientRunner, ConfigValidation) {
  MeasurementConfig cfg;
  cfg.deadline_seconds = -1.0;
  EXPECT_THROW(BenchmarkRunner{cfg}, pe::Error);
  cfg = {};
  cfg.retry.max_attempts = 0;
  EXPECT_THROW(BenchmarkRunner{cfg}, pe::Error);
}

TEST(ResilientRunner, DefaultPolicyIsSingleStableAttempt) {
  const BenchmarkRunner runner(fast_config());
  volatile double sink = 0.0;
  const auto m = runner.run("noop", [&] { sink = sink + 1.0; });
  EXPECT_EQ(m.attempts, 1);
  EXPECT_TRUE(m.stable);
  EXPECT_GE(m.summary.cv, 0.0);
}

TEST(ResilientRunner, DeadlineRunsTheKernelOnTheCallingThread) {
  MeasurementConfig cfg = fast_config();
  cfg.warmup_runs = 2;
  cfg.deadline_seconds = 5.0;
  const BenchmarkRunner runner(cfg);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  int elsewhere = 0;  // plain ints: every call is on this thread
  const auto m = runner.run("here", [&] {
    ++calls;
    if (std::this_thread::get_id() != caller) ++elsewhere;
  });
  EXPECT_EQ(m.seconds.size(), 4u);
  EXPECT_GT(calls, 2);
  EXPECT_EQ(elsewhere, 0);
}

TEST(ResilientRunner, TimedOutKernelIsNeverCalledAfterTheThrow) {
  // The deadline is checked after each warm-up call: the second 80 ms call
  // spends the 0.1 s budget, the runner throws, and no call follows.
  MeasurementConfig cfg;
  cfg.warmup_runs = 2;
  cfg.repetitions = 1;
  cfg.min_batch_seconds = 1e-9;
  cfg.deadline_seconds = 0.1;
  const BenchmarkRunner runner(cfg);
  std::atomic<int> calls{0};
  try {
    (void)runner.run("slow-but-terminating", [&calls] {
      ++calls;
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    });
    FAIL() << "expected MeasurementError";
  } catch (const MeasurementError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kTimeout);
    EXPECT_EQ(e.attempts(), 1);
    EXPECT_GE(e.elapsed_seconds(), 0.1);
  }
  EXPECT_EQ(calls.load(), 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(calls.load(), 2);
}

TEST(ResilientRunner, KernelExceptionUnderADeadlineReachesTheCaller) {
  MeasurementConfig cfg = fast_config();
  cfg.deadline_seconds = 5.0;
  const BenchmarkRunner runner(cfg);
  EXPECT_THROW(
      (void)runner.run("throws", [] { throw std::runtime_error("inner"); }),
      std::runtime_error);
}

TEST(ResilientRunner, CalibrationAbortsPredictively) {
  MeasurementConfig cfg;
  cfg.warmup_runs = 0;
  cfg.repetitions = 2;
  cfg.min_batch_seconds = 5.0;  // unreachable under the deadline
  cfg.deadline_seconds = 0.5;
  const BenchmarkRunner runner(cfg);
  const pe::WallTimer t;
  try {
    (void)runner.run("slow", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    FAIL() << "expected MeasurementError";
  } catch (const MeasurementError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kTimeout);
    EXPECT_NE(std::string(e.what()).find("calibration"), std::string::npos);
  }
  // The predictive check fired after the first probe, well before the
  // deadline, so no time was wasted on a probe that could not fit.
  EXPECT_LT(t.elapsed(), 0.4);
}

TEST(ResilientRunner, RetryExhaustsAttemptsOnNoisySamples) {
  MeasurementConfig cfg = fast_config();
  cfg.repetitions = 16;
  cfg.retry.max_attempts = 3;
  cfg.retry.cv_threshold = 0.10;
  const BenchmarkRunner runner(cfg);
  // Probabilistic value corruption creates genuine dispersion: roughly half
  // the recorded samples are scaled 50x, so the CV stays far above the
  // threshold on every attempt. (A constant scale on all samples would
  // leave the CV unchanged.)
  FaultPlan plan;
  plan.seed = 42;
  plan.faults.push_back({.site = std::string(pe::fault_sites::kKernelCall),
                         .kind = FaultKind::kCorruptValue,
                         .probability = 0.5,
                         .corrupt_scale = 50.0});
  ScopedFaultInjection scope(std::move(plan));
  volatile double sink = 0.0;
  const auto m = runner.run("noisy", [&] { sink = sink + 1.0; });
  EXPECT_EQ(m.attempts, 3);  // bounded: never exceeds max_attempts
  EXPECT_FALSE(m.stable);
  EXPECT_GT(m.summary.cv, 0.10);
}

TEST(ResilientRunner, FailOnUnstableThrowsStructured) {
  MeasurementConfig cfg = fast_config();
  cfg.repetitions = 16;
  cfg.retry.max_attempts = 2;
  cfg.retry.cv_threshold = 0.10;
  cfg.retry.fail_on_unstable = true;
  const BenchmarkRunner runner(cfg);
  FaultPlan plan;
  plan.seed = 42;
  plan.faults.push_back({.site = std::string(pe::fault_sites::kKernelCall),
                         .kind = FaultKind::kCorruptValue,
                         .probability = 0.5,
                         .corrupt_scale = 50.0});
  ScopedFaultInjection scope(std::move(plan));
  volatile double sink = 0.0;
  try {
    (void)runner.run("noisy", [&] { sink = sink + 1.0; });
    FAIL() << "expected MeasurementError";
  } catch (const MeasurementError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kUnstable);
    EXPECT_EQ(e.attempts(), 2);
  }
}

TEST(ResilientRunner, StableSampleStopsRetrying) {
  MeasurementConfig cfg = fast_config();
  cfg.retry.max_attempts = 5;
  cfg.retry.cv_threshold = 1e9;  // anything passes
  const BenchmarkRunner runner(cfg);
  volatile double sink = 0.0;
  const auto m = runner.run("calm", [&] { sink = sink + 1.0; });
  EXPECT_EQ(m.attempts, 1);
  EXPECT_TRUE(m.stable);
}

TEST(ResilientRunner, KernelFaultsPropagateToCaller) {
  const BenchmarkRunner runner(fast_config());
  FaultPlan plan;
  plan.faults.push_back({.site = std::string(pe::fault_sites::kKernelCall)});
  ScopedFaultInjection scope(std::move(plan));
  EXPECT_THROW((void)runner.run("doomed", [] {}),
               pe::resilience::FaultInjected);
}

}  // namespace
