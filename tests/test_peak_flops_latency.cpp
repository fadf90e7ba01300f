// Tests for peak-FLOPS and latency microbenchmarks in perfeng/microbench.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "perfeng/common/error.hpp"
#include "perfeng/microbench/latency.hpp"
#include "perfeng/microbench/peak_flops.hpp"
#include "perfeng/resilience/measurement_error.hpp"

namespace {

pe::BenchmarkRunner fast_runner() {
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 3;
  cfg.min_batch_seconds = 1e-4;
  return pe::BenchmarkRunner(cfg);
}

TEST(PeakFlops, MeasuresPositiveRate) {
  const auto runner = fast_runner();
  const auto r = pe::microbench::run_peak_flops(4, runner);
  EXPECT_GT(r.flops, 1e6);
  EXPECT_EQ(r.accumulators, 4u);
}

TEST(PeakFlops, MoreAccumulatorsNeverMuchSlower) {
  // Independent chains should beat (or at worst match) a single dependent
  // chain; allow generous noise.
  const auto runner = fast_runner();
  const double one = pe::microbench::run_peak_flops(1, runner).flops;
  const double eight = pe::microbench::run_peak_flops(8, runner).flops;
  EXPECT_GT(eight, one * 0.8);
}

TEST(PeakFlops, AccumulatorBoundsChecked) {
  const auto runner = fast_runner();
  EXPECT_THROW((void)pe::microbench::run_peak_flops(0, runner), pe::Error);
  EXPECT_THROW((void)pe::microbench::run_peak_flops(17, runner), pe::Error);
}

TEST(PeakFlops, SweepReturnsBest) {
  const auto runner = fast_runner();
  const double best = pe::microbench::peak_flops(runner);
  EXPECT_GT(best, 1e6);
}

TEST(Latency, MeasuresPositiveLatency) {
  const auto runner = fast_runner();
  const auto p = pe::microbench::run_latency(1 << 14, runner);
  EXPECT_GT(p.seconds_per_load, 0.0);
  EXPECT_LT(p.seconds_per_load, 1e-5);
  EXPECT_GE(p.bytes, std::size_t{1} << 14);
}

TEST(Latency, SweepDoubles) {
  const auto runner = fast_runner();
  const auto sweep =
      pe::microbench::latency_sweep(1 << 12, 1 << 15, runner);
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep[0].bytes, std::size_t{1} << 12);
  EXPECT_EQ(sweep[3].bytes, std::size_t{1} << 15);
}

TEST(Latency, TimedOutChaseKeepsItsChainAlive) {
  // The warm-up calls alone outlast the 1 ms deadline, so the runner
  // throws between two of them and run_latency frees its chain. Every
  // call ran on this thread, so none is left chasing the freed chain; a
  // call still running elsewhere would reach it during the sleep, where
  // ASan reports it.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 20;
  cfg.repetitions = 1;
  cfg.deadline_seconds = 1e-3;
  const pe::BenchmarkRunner runner(cfg);
  try {
    (void)pe::microbench::run_latency(std::size_t{32} << 20, runner);
    FAIL() << "expected MeasurementError";
  } catch (const pe::resilience::MeasurementError& e) {
    EXPECT_EQ(e.kind(), pe::resilience::FailureKind::kTimeout);
  }
  // Twenty calls of a few thousand hops each would finish in well under
  // this.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
}

TEST(Latency, SweepRangeValidated) {
  const auto runner = fast_runner();
  EXPECT_THROW(
      (void)pe::microbench::latency_sweep(1 << 16, 1 << 12, runner),
      pe::Error);
}

TEST(DetectCacheLevels, FindsSyntheticKnees) {
  std::vector<pe::microbench::LatencyPoint> sweep = {
      {4096, 1e-9},   {8192, 1e-9},    {16384, 1.05e-9},
      {32768, 1e-9},  {65536, 3e-9},  // knee after 32768
      {131072, 3e-9}, {262144, 1.2e-8},  // knee after 131072
  };
  const auto knees = pe::microbench::detect_cache_levels(sweep, 1.4);
  ASSERT_EQ(knees.size(), 2u);
  EXPECT_EQ(knees[0], 32768u);
  EXPECT_EQ(knees[1], 131072u);
}

TEST(DetectCacheLevels, NoKneesOnFlatSweep) {
  std::vector<pe::microbench::LatencyPoint> sweep = {
      {4096, 1e-9}, {8192, 1.1e-9}, {16384, 1e-9}};
  EXPECT_TRUE(pe::microbench::detect_cache_levels(sweep).empty());
}

TEST(DetectCacheLevels, JumpRatioValidated) {
  EXPECT_THROW((void)pe::microbench::detect_cache_levels({}, 1.0),
               pe::Error);
}

}  // namespace
