// Tests for the measurement harness in perfeng/measure/benchmark_runner.hpp.
#include "perfeng/measure/benchmark_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "perfeng/common/error.hpp"

namespace {

pe::MeasurementConfig fast_config() {
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 3;
  cfg.min_batch_seconds = 1e-4;
  return cfg;
}

TEST(BenchmarkRunner, RecordsRequestedRepetitions) {
  pe::BenchmarkRunner runner(fast_config());
  const auto m = runner.run("noop", [] {});
  EXPECT_EQ(m.seconds.size(), 3u);
  EXPECT_EQ(m.label, "noop");
  EXPECT_EQ(m.summary.count, 3u);
}

TEST(BenchmarkRunner, BatchGrowsForFastKernels) {
  pe::BenchmarkRunner runner(fast_config());
  const auto m = runner.run("noop", [] {});
  EXPECT_GT(m.batch_iterations, 1u);
}

TEST(BenchmarkRunner, SlowKernelsUseSmallBatches) {
  pe::BenchmarkRunner runner(fast_config());
  const auto m = runner.run("sleepy", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  EXPECT_EQ(m.batch_iterations, 1u);
  EXPECT_GE(m.typical(), 0.0015);
}

TEST(BenchmarkRunner, WarmupRunsExecuteBeforeTiming) {
  std::atomic<int> calls{0};
  pe::MeasurementConfig cfg = fast_config();
  cfg.warmup_runs = 5;
  cfg.max_batch_iterations = 1;  // pin the batch to isolate the count
  pe::BenchmarkRunner runner(cfg);
  (void)runner.run("counted", [&calls] { ++calls; });
  // 5 warmups + the 1-call calibration batch, recorded as repetition 0,
  // + 2 more timed batches of 1.
  EXPECT_EQ(calls.load(), 8);
}

TEST(BenchmarkRunner, CalibrationBatchIsTheFirstRepetition) {
  // The floor is unreachable, so calibration jumps 1 -> 4 and stops at the
  // cap. That 4-call batch followed a warm-up and a 1-call batch, so it is
  // recorded as repetition 0 and only 2 more batches are timed.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 3;
  cfg.min_batch_seconds = 10.0;
  cfg.max_batch_iterations = 4;
  pe::BenchmarkRunner runner(cfg);
  int calls = 0;
  const auto m = runner.run("counted", [&calls] {
    ++calls;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  EXPECT_EQ(m.batch_iterations, 4u);
  EXPECT_EQ(m.seconds.size(), 3u);
  // 1 warm-up + calibration batches of 1 and 4 + 2 timed batches of 4.
  EXPECT_EQ(calls, 1 + 1 + 4 + 2 * 4);
}

TEST(BenchmarkRunner, FirstCallOfTheAttemptIsNeverASample) {
  // No warm-up and a first call that meets the floor: calibration ends on
  // the attempt's cold first call, which is discarded, and all 3
  // repetitions are timed afresh.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 0;
  cfg.repetitions = 3;
  cfg.min_batch_seconds = 1e-4;
  pe::BenchmarkRunner runner(cfg);
  int calls = 0;
  const auto m = runner.run("cold-first", [&calls] {
    std::this_thread::sleep_for(std::chrono::milliseconds(calls++ == 0 ? 20
                                                                       : 2));
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(m.batch_iterations, 1u);
  ASSERT_EQ(m.seconds.size(), 3u);
  for (const double s : m.seconds) EXPECT_LT(s, 0.010);
}

TEST(BenchmarkRunner, ColdFirstCallDoesNotSizeTheBatch) {
  // No warm-up, a 4 ms cold first call, 2 ms warm calls, a 5 ms floor.
  // Sized from the cold call, calibration would run an undersized batch
  // of 2 and then one of 4 (7 calls). Instead one warm call is timed and
  // the batch projected from it meets the floor at once: the cold call,
  // the warm probe and the accepted batch, which is the only repetition.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 0;
  cfg.repetitions = 1;
  cfg.min_batch_seconds = 5e-3;
  pe::BenchmarkRunner runner(cfg);
  int calls = 0;
  const auto m = runner.run("cold-then-warm", [&calls] {
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(calls++ == 0 ? 4 : 2);
    while (std::chrono::steady_clock::now() < end) {
    }
  });
  ASSERT_EQ(m.seconds.size(), 1u);
  EXPECT_GE(m.batch_iterations, 3u);
  EXPECT_EQ(static_cast<std::size_t>(calls), 2 + m.batch_iterations);
  EXPECT_LT(m.seconds[0], 3e-3);
}

TEST(BenchmarkRunner, BestNeverExceedsTypical) {
  pe::BenchmarkRunner runner(fast_config());
  const auto m = runner.run("noop", [] {
    volatile int x = 0;
    for (int i = 0; i < 100; ++i) x = x + i;
  });
  EXPECT_LE(m.best(), m.typical());
  EXPECT_GT(m.best(), 0.0);
}

TEST(BenchmarkRunner, NullKernelRejected) {
  pe::BenchmarkRunner runner(fast_config());
  EXPECT_THROW((void)runner.run("null", std::function<void()>{}), pe::Error);
}

TEST(BenchmarkRunner, InvalidConfigsRejected) {
  pe::MeasurementConfig bad = fast_config();
  bad.repetitions = 0;
  EXPECT_THROW(pe::BenchmarkRunner{bad}, pe::Error);
  bad = fast_config();
  bad.warmup_runs = -1;
  EXPECT_THROW(pe::BenchmarkRunner{bad}, pe::Error);
  bad = fast_config();
  bad.min_batch_seconds = 0.0;
  EXPECT_THROW(pe::BenchmarkRunner{bad}, pe::Error);
}

TEST(BenchmarkRunner, RunWithSetupCallsSetupBeforeEveryKernel) {
  pe::BenchmarkRunner runner(fast_config());
  int setups = 0, kernels = 0;
  bool ordered = true;
  (void)runner.run_with_setup(
      "paired", [&] { ++setups; },
      [&] {
        ++kernels;
        if (setups != kernels) ordered = false;
      });
  EXPECT_EQ(setups, kernels);
  EXPECT_TRUE(ordered);
  EXPECT_GT(kernels, 0);
}

TEST(BenchmarkRunner, MeasurementSummaryConsistent) {
  pe::BenchmarkRunner runner(fast_config());
  const auto m = runner.run("noop", [] {});
  EXPECT_LE(m.summary.min, m.summary.median);
  EXPECT_LE(m.summary.median, m.summary.max);
}

}  // namespace
