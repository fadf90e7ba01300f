// Tests for the STREAM microbenchmarks in perfeng/microbench/stream.hpp
// and the exactness contract of the vectorized loop bodies in
// perfeng/microbench/stream_kernels.hpp.
#include "perfeng/microbench/stream.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <thread>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/microbench/stream_kernels.hpp"
#include "perfeng/resilience/measurement_error.hpp"
#include "perfeng/simd/vec.hpp"

namespace {

using pe::microbench::StreamKernel;

pe::BenchmarkRunner fast_runner() {
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 3;
  cfg.min_batch_seconds = 1e-4;
  return pe::BenchmarkRunner(cfg);
}

TEST(Stream, KernelNames) {
  EXPECT_EQ(pe::microbench::stream_kernel_name(StreamKernel::kCopy), "Copy");
  EXPECT_EQ(pe::microbench::stream_kernel_name(StreamKernel::kTriad),
            "Triad");
}

TEST(Stream, TrafficAccountingFollowsMcCalpin) {
  EXPECT_EQ(pe::microbench::stream_bytes_per_element(StreamKernel::kCopy),
            16u);
  EXPECT_EQ(pe::microbench::stream_bytes_per_element(StreamKernel::kScale),
            16u);
  EXPECT_EQ(pe::microbench::stream_bytes_per_element(StreamKernel::kAdd),
            24u);
  EXPECT_EQ(pe::microbench::stream_bytes_per_element(StreamKernel::kTriad),
            24u);
}

TEST(Stream, FlopAccounting) {
  EXPECT_EQ(pe::microbench::stream_flops_per_element(StreamKernel::kCopy),
            0u);
  EXPECT_EQ(pe::microbench::stream_flops_per_element(StreamKernel::kScale),
            1u);
  EXPECT_EQ(pe::microbench::stream_flops_per_element(StreamKernel::kAdd),
            1u);
  EXPECT_EQ(pe::microbench::stream_flops_per_element(StreamKernel::kTriad),
            2u);
}

class StreamKernels : public ::testing::TestWithParam<StreamKernel> {};

TEST_P(StreamKernels, MeasuresPositiveBandwidth) {
  const auto runner = fast_runner();
  const auto r = pe::microbench::run_stream(GetParam(), 1 << 14, runner);
  EXPECT_GT(r.best_bandwidth, 0.0);
  EXPECT_GT(r.median_bandwidth, 0.0);
  EXPECT_GE(r.best_bandwidth, r.median_bandwidth * 0.5);
  EXPECT_EQ(r.elements, std::size_t{1} << 14);
}

INSTANTIATE_TEST_SUITE_P(All, StreamKernels,
                         ::testing::Values(StreamKernel::kCopy,
                                           StreamKernel::kScale,
                                           StreamKernel::kAdd,
                                           StreamKernel::kTriad));

TEST(Stream, SuiteRunsAllFour) {
  const auto runner = fast_runner();
  const auto suite = pe::microbench::run_stream_suite(1 << 13, runner);
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].kernel, StreamKernel::kCopy);
  EXPECT_EQ(suite[3].kernel, StreamKernel::kTriad);
}

TEST(Stream, TimedOutKernelKeepsItsArraysAlive) {
  // One triad over three 32 MiB vectors takes several ms, so the 1 ms
  // budget is spent by the warm-up call; the runner throws and run_stream
  // frees its arrays. Every call ran on this thread, so none is left
  // streaming freed arrays; a call still running elsewhere would reach
  // them during the sleep, where ASan reports it.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 1;
  cfg.deadline_seconds = 1e-3;
  const pe::BenchmarkRunner runner(cfg);
  try {
    (void)pe::microbench::run_stream(StreamKernel::kTriad, 1 << 22, runner);
    FAIL() << "expected MeasurementError";
  } catch (const pe::resilience::MeasurementError& e) {
    EXPECT_EQ(e.kind(), pe::resilience::FailureKind::kTimeout);
  }
  // Three triads (warm-up, calibration, repetition) would finish in well
  // under this.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
}

TEST(Stream, SustainableBandwidthIsSuiteMax) {
  const auto runner = fast_runner();
  const double bw = pe::microbench::sustainable_bandwidth(1 << 13, runner);
  EXPECT_GT(bw, 1e6);  // any machine moves more than 1 MB/s
}

// The vectorized loop bodies must equal their scalar references exactly
// (operator==) at every length — including remainder lengths that leave a
// scalar tail, the empty case, and lengths below one vector. Triad is the
// exception the contract documents: with a fused backend every element is
// std::fma (one rounding), so its reference is kFusedMulAdd-aware.
TEST(StreamKernelsExactness, VectorizedBodiesMatchScalarReferences) {
  pe::Rng rng(77);
  // Around the lane boundary (lanes=4): 0..9 covers empty, sub-vector,
  // exact multiples and every tail length; 1023/1025 cover big + tail.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{1023}, std::size_t{1025}}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.next_range_double(-5.0, 5.0);
      b[i] = rng.next_range_double(-5.0, 5.0);
    }
    const double s = 3.25;
    std::vector<double> got(n, -1.0), want(n, -2.0);

    pe::microbench::stream_copy(a.data(), got.data(), n);
    pe::microbench::stream_copy_scalar(a.data(), want.data(), n);
    EXPECT_EQ(got, want) << "copy n=" << n;

    pe::microbench::stream_scale(a.data(), got.data(), s, n);
    pe::microbench::stream_scale_scalar(a.data(), want.data(), s, n);
    EXPECT_EQ(got, want) << "scale n=" << n;

    pe::microbench::stream_add(a.data(), b.data(), got.data(), n);
    pe::microbench::stream_add_scalar(a.data(), b.data(), want.data(), n);
    EXPECT_EQ(got, want) << "add n=" << n;

    pe::microbench::stream_triad(a.data(), b.data(), got.data(), s, n);
    if constexpr (pe::simd::VecD::kFusedMulAdd) {
      for (std::size_t i = 0; i < n; ++i)
        want[i] = std::fma(s, b[i], a[i]);
    } else {
      pe::microbench::stream_triad_scalar(a.data(), b.data(), want.data(),
                                          s, n);
    }
    EXPECT_EQ(got, want) << "triad n=" << n;
  }
}

TEST(StreamKernelsExactness, TriadFusionStaysWithinOneUlpOfScalar) {
  // Whatever the backend, the fused and unfused triads agree to ~1 ulp —
  // the documented envelope callers get to rely on without knowing the
  // backend.
  const std::size_t n = 257;
  pe::Rng rng(78);
  std::vector<double> a(n), b(n), fused(n), plain(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.next_range_double(-1.0, 1.0);
    b[i] = rng.next_range_double(-1.0, 1.0);
  }
  pe::microbench::stream_triad(a.data(), b.data(), fused.data(), 3.0, n);
  pe::microbench::stream_triad_scalar(a.data(), b.data(), plain.data(), 3.0,
                                      n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ulp =
        std::nextafter(std::abs(plain[i]),
                       std::numeric_limits<double>::infinity()) -
        std::abs(plain[i]);
    EXPECT_NEAR(fused[i], plain[i], ulp) << i;
  }
}

TEST(Stream, TinyVectorsRejected) {
  const auto runner = fast_runner();
  EXPECT_THROW(
      (void)pe::microbench::run_stream(StreamKernel::kCopy, 4, runner),
      pe::Error);
}

}  // namespace
