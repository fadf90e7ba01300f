// Tests for the deterministic RNG in perfeng/common/rng.hpp.
#include "perfeng/common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "perfeng/common/error.hpp"

namespace {

TEST(Fnv1a, MatchesTheReferenceVectors) {
  EXPECT_EQ(pe::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(pe::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Rng, SameSeedSameSequence) {
  pe::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  pe::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  pe::Rng rng(9);
  const auto first = rng.next_u64();
  rng.next_u64();
  rng.reseed(9);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(Rng, DoubleInUnitInterval) {
  pe::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  pe::Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, RangeIsInclusive) {
  pe::Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeSingletonAndInvalid) {
  pe::Rng rng(5);
  EXPECT_EQ(rng.next_range(42, 42), 42u);
  EXPECT_THROW(rng.next_range(5, 3), pe::Error);
}

TEST(Rng, RangeIsRoughlyUniform) {
  pe::Rng rng(21);
  std::vector<int> bins(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++bins[rng.next_range(0, 9)];
  for (int count : bins) {
    EXPECT_GT(count, n / 10 * 0.9);
    EXPECT_LT(count, n / 10 * 1.1);
  }
}

TEST(Rng, NormalMomentsMatch) {
  pe::Rng rng(31);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  pe::Rng rng(41);
  const double lambda = 2.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  pe::Rng rng(1);
  EXPECT_THROW(rng.next_exponential(0.0), pe::Error);
  EXPECT_THROW(rng.next_exponential(-1.0), pe::Error);
}

TEST(Rng, ZipfStaysInDomain) {
  pe::Rng rng(51);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.next_zipf(100, 1.2), 100u);
  }
}

TEST(Rng, ZipfZeroSkewIsUniform) {
  pe::Rng rng(61);
  std::vector<int> bins(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++bins[rng.next_zipf(8, 0.0)];
  for (int count : bins) EXPECT_NEAR(count, n / 8, n / 8 * 0.1);
}

TEST(Rng, ZipfSkewConcentratesOnLowRanks) {
  pe::Rng rng(71);
  const int n = 50000;
  int top = 0;
  for (int i = 0; i < n; ++i)
    if (rng.next_zipf(1000, 1.2) < 10) ++top;
  // With skew 1.2 the top-10 of 1000 ranks should hold a large share.
  EXPECT_GT(static_cast<double>(top) / n, 0.4);
}

TEST(Rng, ZipfSingletonDomain) {
  pe::Rng rng(81);
  EXPECT_EQ(rng.next_zipf(1, 1.5), 0u);
  EXPECT_THROW(rng.next_zipf(0, 1.0), pe::Error);
}

TEST(Rng, ShuffleIsAPermutation) {
  pe::Rng rng(91);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

class RngRangeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngRangeSweep, BoundedByParam) {
  pe::Rng rng(GetParam());
  const std::uint64_t hi = GetParam();
  for (int i = 0; i < 2000; ++i) EXPECT_LE(rng.next_range(0, hi), hi);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngRangeSweep,
                         ::testing::Values(1, 2, 7, 63, 64, 1000,
                                           UINT64_MAX / 2));

}  // namespace
