// Tests for sparse formats and SpMV in perfeng/kernels/sparse.hpp, plus
// the SELL-C-sigma format and the learned format selector
// (perfeng/kernels/format_select.hpp).
#include "perfeng/kernels/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "perfeng/common/error.hpp"
#include "perfeng/kernels/format_select.hpp"

namespace {

using pe::kernels::CooMatrix;
using pe::kernels::CsrMatrix;
using pe::kernels::SparsityPattern;

CooMatrix small_coo() {
  // [ 1 0 2 ]
  // [ 0 3 0 ]
  CooMatrix m;
  m.rows = 2;
  m.cols = 3;
  m.entries = {{0, 2, 2.0}, {1, 1, 3.0}, {0, 0, 1.0}};
  return m;
}

TEST(Coo, NormalizeSortsAndMergesDuplicates) {
  CooMatrix m;
  m.rows = 2;
  m.cols = 2;
  m.entries = {{1, 1, 1.0}, {0, 0, 2.0}, {1, 1, 3.0}};
  m.normalize();
  ASSERT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.entries[0].row, 0u);
  EXPECT_DOUBLE_EQ(m.entries[1].value, 4.0);
}

TEST(Conversions, CooToCsrLayout) {
  const auto csr = pe::kernels::coo_to_csr(small_coo());
  EXPECT_EQ(csr.rows, 2u);
  EXPECT_EQ(csr.cols, 3u);
  EXPECT_EQ(csr.row_ptr, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(csr.col_idx, (std::vector<std::uint32_t>{0, 2, 1}));
  EXPECT_EQ(csr.values, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Conversions, CooToCscLayout) {
  const auto csc = pe::kernels::coo_to_csc(small_coo());
  EXPECT_EQ(csc.col_ptr, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(csc.row_idx, (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_EQ(csc.values, (std::vector<double>{1.0, 3.0, 2.0}));
}

TEST(Conversions, CsrRoundTripsThroughCoo) {
  const auto csr = pe::kernels::coo_to_csr(small_coo());
  const auto back = pe::kernels::csr_to_coo(csr);
  const auto csr2 = pe::kernels::coo_to_csr(back);
  EXPECT_EQ(csr.row_ptr, csr2.row_ptr);
  EXPECT_EQ(csr.col_idx, csr2.col_idx);
  EXPECT_EQ(csr.values, csr2.values);
}

TEST(Conversions, OutOfBoundsEntryRejected) {
  CooMatrix m;
  m.rows = 2;
  m.cols = 2;
  m.entries = {{5, 0, 1.0}};
  EXPECT_THROW((void)pe::kernels::coo_to_csr(m), pe::Error);
}

TEST(Spmv, KnownProduct) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(2, -1.0);
  pe::kernels::spmv_coo(small_coo(), x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);  // 1*1 + 2*3
  EXPECT_DOUBLE_EQ(y[1], 6.0);  // 3*2
}

class SpmvPatterns : public ::testing::TestWithParam<SparsityPattern> {};

TEST_P(SpmvPatterns, AllFormatsAgree) {
  pe::Rng rng(42);
  const auto coo =
      pe::kernels::generate_sparse(200, 150, 0.02, GetParam(), rng);
  const auto csr = pe::kernels::coo_to_csr(coo);
  const auto csc = pe::kernels::coo_to_csc(coo);

  std::vector<double> x(coo.cols);
  for (auto& v : x) v = rng.next_range_double(-1.0, 1.0);

  std::vector<double> y_coo(coo.rows), y_csr(coo.rows), y_csc(coo.rows),
      y_par(coo.rows);
  pe::kernels::spmv_coo(coo, x, y_coo);
  pe::kernels::spmv_csr(csr, x, y_csr);
  pe::kernels::spmv_csc(csc, x, y_csc);
  pe::ThreadPool pool(3);
  pe::kernels::spmv_csr_parallel(csr, x, y_par, pool);

  for (std::size_t r = 0; r < coo.rows; ++r) {
    EXPECT_NEAR(y_csr[r], y_coo[r], 1e-12);
    EXPECT_NEAR(y_csc[r], y_coo[r], 1e-12);
    EXPECT_NEAR(y_par[r], y_coo[r], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, SpmvPatterns,
                         ::testing::Values(SparsityPattern::kUniform,
                                           SparsityPattern::kBanded,
                                           SparsityPattern::kPowerLaw));

TEST_P(SpmvPatterns, BalancedPartitionCoversRowsMonotonically) {
  pe::Rng rng(7);
  const auto csr = pe::kernels::coo_to_csr(
      pe::kernels::generate_sparse(311, 200, 0.03, GetParam(), rng));
  for (std::size_t parts : {1u, 2u, 3u, 5u, 8u}) {
    const auto bounds = pe::kernels::balanced_row_partition(csr, parts);
    ASSERT_EQ(bounds.size(), parts + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), csr.rows);
    for (std::size_t p = 0; p < parts; ++p)
      EXPECT_LE(bounds[p], bounds[p + 1]) << parts << "/" << p;
  }
}

TEST(BalancedPartition, EvensOutPowerLawNonzeros) {
  pe::Rng rng(8);
  const auto csr = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      600, 600, 0.02, SparsityPattern::kPowerLaw, rng));
  const std::size_t parts = 4;
  const auto bounds = pe::kernels::balanced_row_partition(csr, parts);
  // Naive row-count splits give the first part the heavy head rows; the
  // nonzero-balanced split must keep every part near nnz/parts. A single
  // row can exceed the ideal share, so allow a 2x band plus slack.
  const double ideal = double(csr.nnz()) / double(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    const double part_nnz =
        double(csr.row_ptr[bounds[p + 1]]) - double(csr.row_ptr[bounds[p]]);
    EXPECT_LE(part_nnz, 2.0 * ideal + 64.0) << p;
  }
}

// A head of heavy rows and a long tail of light ones: splitting by
// nonzeros alone hands each of the last two parts 2000 rows and 2000
// nonzeros (4000 units) while the first two get 8 rows each. Counting one
// unit per row as well caps every part at its share plus one row.
TEST(BalancedPartition, CapsEveryPartAtItsShareOfRowsPlusNonzeros) {
  CsrMatrix csr;
  csr.rows = 16 + 4000;
  csr.cols = 250;
  csr.row_ptr.push_back(0);
  for (std::size_t r = 0; r < csr.rows; ++r) {
    const std::uint32_t degree = r < 16 ? 250 : 1;
    for (std::uint32_t c = 0; c < degree; ++c) {
      csr.col_idx.push_back(c);
      csr.values.push_back(1.0);
    }
    csr.row_ptr.push_back(static_cast<std::uint32_t>(csr.values.size()));
  }
  const std::size_t parts = 4;
  const std::size_t share = (csr.rows + csr.nnz()) / parts;  // 3004
  const std::size_t heaviest_row = 1 + 250;
  const auto bounds = pe::kernels::balanced_row_partition(csr, parts);
  ASSERT_EQ(bounds.size(), parts + 1);
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t cost = (bounds[p + 1] - bounds[p]) +
                             (csr.row_ptr[bounds[p + 1]] -
                              csr.row_ptr[bounds[p]]);
    EXPECT_LE(cost, share + heaviest_row) << "part " << p;
  }
}

TEST(BalancedPartition, MorePartsThanRows) {
  const auto csr = pe::kernels::coo_to_csr(small_coo());  // 2 rows
  const auto bounds = pe::kernels::balanced_row_partition(csr, 6);
  ASSERT_EQ(bounds.size(), 7u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), csr.rows);
  std::size_t nonempty = 0;
  for (std::size_t p = 0; p < 6; ++p)
    nonempty += (bounds[p + 1] > bounds[p]) ? 1 : 0;
  EXPECT_LE(nonempty, csr.rows);
}

// The balanced kernel promises the exact per-row summation order of the
// serial spmv_csr, so equality here is exact, not tolerance-based.
TEST_P(SpmvPatterns, BalancedSpmvMatchesSerialExactly) {
  pe::Rng rng(21);
  const auto csr = pe::kernels::coo_to_csr(
      pe::kernels::generate_sparse(257, 193, 0.04, GetParam(), rng));
  std::vector<double> x(csr.cols);
  for (auto& v : x) v = rng.next_range_double(-1.0, 1.0);
  std::vector<double> y_serial(csr.rows), y_bal(csr.rows, -7.0);
  pe::kernels::spmv_csr(csr, x, y_serial);
  pe::ThreadPool pool(3);
  pe::kernels::spmv_csr_parallel_balanced(csr, x, y_bal, pool);
  for (std::size_t r = 0; r < csr.rows; ++r)
    EXPECT_EQ(y_bal[r], y_serial[r]) << r;
}

TEST(Spmv, BalancedHandlesTinyAndSingleRowMatrices) {
  pe::ThreadPool pool(4);
  const auto csr = pe::kernels::coo_to_csr(small_coo());
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(csr.rows);
  pe::kernels::spmv_csr_parallel_balanced(csr, x, y, pool);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);

  CooMatrix one;
  one.rows = 1;
  one.cols = 4;
  one.entries = {{0, 0, 2.0}, {0, 3, 5.0}};
  const auto csr1 = pe::kernels::coo_to_csr(one);
  std::vector<double> x1 = {1.0, 1.0, 1.0, 10.0}, y1(1);
  pe::kernels::spmv_csr_parallel_balanced(csr1, x1, y1, pool);
  EXPECT_DOUBLE_EQ(y1[0], 52.0);
}

TEST(Ell, ConversionPadsToMaxDegree) {
  const auto ell = pe::kernels::csr_to_ell(
      pe::kernels::coo_to_csr(small_coo()));
  EXPECT_EQ(ell.rows, 2u);
  EXPECT_EQ(ell.width, 2u);  // row 0 has two entries
  EXPECT_EQ(ell.nnz(), 3u);
  EXPECT_DOUBLE_EQ(ell.padding_ratio(), 4.0 / 3.0);
}

TEST(Ell, SpmvMatchesCsr) {
  pe::Rng rng(11);
  for (const auto pattern :
       {SparsityPattern::kUniform, SparsityPattern::kPowerLaw}) {
    const auto csr = pe::kernels::coo_to_csr(
        pe::kernels::generate_sparse(150, 120, 0.03, pattern, rng));
    const auto ell = pe::kernels::csr_to_ell(csr);
    std::vector<double> x(csr.cols);
    for (auto& v : x) v = rng.next_range_double(-1.0, 1.0);
    std::vector<double> y_csr(csr.rows), y_ell(csr.rows);
    pe::kernels::spmv_csr(csr, x, y_csr);
    pe::kernels::spmv_ell(ell, x, y_ell);
    for (std::size_t r = 0; r < csr.rows; ++r)
      EXPECT_NEAR(y_ell[r], y_csr[r], 1e-12);
  }
}

TEST(Ell, PowerLawMatricesPadBadly) {
  pe::Rng rng(12);
  const auto uniform = pe::kernels::csr_to_ell(pe::kernels::coo_to_csr(
      pe::kernels::generate_sparse(400, 400, 0.01,
                                   SparsityPattern::kUniform, rng)));
  const auto skewed = pe::kernels::csr_to_ell(pe::kernels::coo_to_csr(
      pe::kernels::generate_sparse(400, 400, 0.01,
                                   SparsityPattern::kPowerLaw, rng)));
  // Skewed degree distributions waste far more padding — ELL's weakness.
  EXPECT_GT(skewed.padding_ratio(), uniform.padding_ratio() * 2.0);
}

TEST(Spmv, SizeMismatchRejected) {
  const auto csr = pe::kernels::coo_to_csr(small_coo());
  std::vector<double> x(2), y(2);  // x too short
  EXPECT_THROW(pe::kernels::spmv_csr(csr, x, y), pe::Error);
}

TEST(Generator, HitsTargetDensityApproximately) {
  pe::Rng rng(1);
  const auto coo = pe::kernels::generate_sparse(
      300, 300, 0.05, SparsityPattern::kUniform, rng);
  const double density =
      double(coo.nnz()) / (300.0 * 300.0);
  // Duplicates get merged, so achieved density is slightly below target.
  EXPECT_GT(density, 0.03);
  EXPECT_LE(density, 0.055);
}

TEST(Generator, BandedStaysNearDiagonal) {
  pe::Rng rng(2);
  const auto coo = pe::kernels::generate_sparse(
      400, 400, 0.01, SparsityPattern::kBanded, rng);
  for (const auto& t : coo.entries) {
    EXPECT_LT(std::abs(double(t.row) - double(t.col)), 20.0);
  }
}

TEST(Generator, PowerLawSkewsRowDegrees) {
  pe::Rng rng(3);
  const auto uniform = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      500, 500, 0.01, SparsityPattern::kUniform, rng));
  const auto powerlaw = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      500, 500, 0.01, SparsityPattern::kPowerLaw, rng));
  const auto fu = pe::kernels::sparse_features(uniform);
  const auto fp = pe::kernels::sparse_features(powerlaw);
  const std::size_t cv_index = 5;  // deg_cv
  EXPECT_GT(fp[cv_index], fu[cv_index] * 2.0);
}

TEST(Generator, DensityValidated) {
  pe::Rng rng(4);
  EXPECT_THROW((void)pe::kernels::generate_sparse(
                   10, 10, 0.0, SparsityPattern::kUniform, rng),
               pe::Error);
  EXPECT_THROW((void)pe::kernels::generate_sparse(
                   10, 10, 1.5, SparsityPattern::kUniform, rng),
               pe::Error);
}

TEST(Features, NamesMatchValues) {
  EXPECT_EQ(pe::kernels::sparse_feature_names().size(), 7u);
  const auto csr = pe::kernels::coo_to_csr(small_coo());
  const auto f = pe::kernels::sparse_features(csr);
  ASSERT_EQ(f.size(), 7u);
  EXPECT_DOUBLE_EQ(f[0], 2.0);            // rows
  EXPECT_DOUBLE_EQ(f[1], 3.0);            // cols
  EXPECT_DOUBLE_EQ(f[2], 3.0);            // nnz
  EXPECT_DOUBLE_EQ(f[3], 0.5);            // density
  EXPECT_DOUBLE_EQ(f[4], 1.5);            // mean degree
  EXPECT_DOUBLE_EQ(f[6], 2.0);            // bandwidth: |2-0|
}

TEST(Sell, ConversionLayoutAndPadding) {
  // 2 rows -> one chunk of C=4 with 2 padding rows; chunk width = widest
  // row (2), so storage is 4*2 slots for 3 real nonzeros.
  const auto sell = pe::kernels::csr_to_sell(
      pe::kernels::coo_to_csr(small_coo()), /*sigma=*/1);
  EXPECT_EQ(sell.rows, 2u);
  EXPECT_EQ(sell.chunks(), 1u);
  EXPECT_EQ(sell.nnz(), 3u);
  EXPECT_EQ(sell.values.size(), pe::kernels::kSellChunk * 2);
  EXPECT_DOUBLE_EQ(sell.padding_ratio(), 8.0 / 3.0);
  // Padding rows carry the sentinel id; real rows keep their identity
  // (sigma=1 means no reordering).
  EXPECT_EQ(sell.row_ids[0], 0u);
  EXPECT_EQ(sell.row_ids[1], 1u);
  EXPECT_EQ(sell.row_ids[2], pe::kernels::SellMatrix::kSellPadRow);
  EXPECT_EQ(sell.row_ids[3], pe::kernels::SellMatrix::kSellPadRow);
}

TEST(Sell, SigmaValidated) {
  const auto csr = pe::kernels::coo_to_csr(small_coo());
  EXPECT_THROW((void)pe::kernels::csr_to_sell(csr, 0), pe::Error);
  EXPECT_THROW((void)pe::kernels::csr_to_sell(csr, 3), pe::Error);
  EXPECT_NO_THROW((void)pe::kernels::csr_to_sell(csr, 1));
  EXPECT_NO_THROW((void)pe::kernels::csr_to_sell(csr, 8));
}

TEST(Sell, SortingWindowCutsPaddingOnSkewedRows) {
  pe::Rng rng(14);
  const auto csr = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      512, 512, 0.01, SparsityPattern::kPowerLaw, rng));
  const auto unsorted = pe::kernels::csr_to_sell(csr, 1);
  const auto sorted = pe::kernels::csr_to_sell(csr, 64);
  EXPECT_LT(sorted.padding_ratio(), unsorted.padding_ratio());
  // SELL padding can never exceed ELL's (ELL pads every row to the global
  // max; SELL only to the per-chunk max).
  const auto ell = pe::kernels::csr_to_ell(csr);
  EXPECT_LE(sorted.padding_ratio(), ell.padding_ratio() + 1e-12);
}

// spmv_sell promises the *exact* per-row summation order of spmv_csr
// (ascending column index, unfused accumulation), so equality is
// operator==, not EXPECT_NEAR — at remainder shapes too (rows not a
// multiple of the chunk height, empty rows, single-row matrices).
TEST_P(SpmvPatterns, SellSpmvMatchesCsrExactly) {
  pe::Rng rng(15);
  // 257 rows: 64 full chunks + a remainder chunk of 1 row. Low density
  // leaves genuinely empty rows in the uniform/powerlaw draws.
  const auto csr = pe::kernels::coo_to_csr(
      pe::kernels::generate_sparse(257, 190, 0.01, GetParam(), rng));
  std::vector<double> x(csr.cols);
  for (auto& v : x) v = rng.next_range_double(-1.0, 1.0);
  std::vector<double> y_csr(csr.rows), y_sell(csr.rows, -7.0);
  pe::kernels::spmv_csr(csr, x, y_csr);
  for (const std::size_t sigma : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}}) {
    const auto sell = pe::kernels::csr_to_sell(csr, sigma);
    std::fill(y_sell.begin(), y_sell.end(), -7.0);
    pe::kernels::spmv_sell(sell, x, y_sell);
    EXPECT_EQ(y_sell, y_csr) << "sigma=" << sigma;
  }
}

TEST_P(SpmvPatterns, ParallelFormatVariantsMatchSerialExactly) {
  pe::Rng rng(16);
  const auto coo =
      pe::kernels::generate_sparse(253, 170, 0.02, GetParam(), rng);
  const auto csr = pe::kernels::coo_to_csr(coo);
  const auto ell = pe::kernels::csr_to_ell(csr);
  const auto sell = pe::kernels::csr_to_sell(csr, 16);
  std::vector<double> x(csr.cols);
  for (auto& v : x) v = rng.next_range_double(-1.0, 1.0);

  std::vector<double> y_ref(csr.rows);
  pe::kernels::spmv_csr(csr, x, y_ref);

  pe::ThreadPool pool(3);
  std::vector<double> y(csr.rows, -7.0);
  pe::kernels::spmv_sell_parallel(sell, x, y, pool);
  EXPECT_EQ(y, y_ref);

  std::fill(y.begin(), y.end(), -7.0);
  pe::kernels::spmv_ell_parallel(ell, x, y, pool);
  EXPECT_EQ(y, y_ref);

  // coo_to_csr sorts, so csr_to_coo yields the row-sorted entries the
  // parallel COO kernel requires.
  const auto sorted_coo = pe::kernels::csr_to_coo(csr);
  std::fill(y.begin(), y.end(), -7.0);
  pe::kernels::spmv_coo_parallel(sorted_coo, x, y, pool);
  EXPECT_EQ(y, y_ref);
}

TEST(Spmv, CooParallelRejectsUnsortedEntries) {
  CooMatrix m;
  m.rows = 2;
  m.cols = 2;
  m.entries = {{1, 0, 1.0}, {0, 1, 2.0}};  // rows out of order
  const std::vector<double> x = {1.0, 1.0};
  std::vector<double> y(2);
  pe::ThreadPool pool(2);
  EXPECT_THROW(pe::kernels::spmv_coo_parallel(m, x, y, pool), pe::Error);
}

TEST(Spmv, NewFormatsHandleSingleRowAndAllEmptyRows) {
  pe::ThreadPool pool(4);
  // Single row (smaller than one SELL chunk).
  CooMatrix one;
  one.rows = 1;
  one.cols = 5;
  one.entries = {{0, 1, 2.0}, {0, 4, 3.0}};
  const auto csr1 = pe::kernels::coo_to_csr(one);
  const std::vector<double> x1 = {1.0, 10.0, 1.0, 1.0, 100.0};
  std::vector<double> y1(1, -7.0);
  pe::kernels::spmv_sell(pe::kernels::csr_to_sell(csr1), x1, y1);
  EXPECT_DOUBLE_EQ(y1[0], 320.0);
  y1[0] = -7.0;
  pe::kernels::spmv_coo_parallel(pe::kernels::csr_to_coo(csr1), x1, y1,
                                 pool);
  EXPECT_DOUBLE_EQ(y1[0], 320.0);

  // A matrix with no entries at all: every path must zero-fill y.
  CooMatrix empty;
  empty.rows = 6;
  empty.cols = 4;
  const auto csr0 = pe::kernels::coo_to_csr(empty);
  const std::vector<double> x0(4, 1.0);
  for (int variant = 0; variant < 4; ++variant) {
    std::vector<double> y0(6, -7.0);
    switch (variant) {
      case 0:
        pe::kernels::spmv_sell(pe::kernels::csr_to_sell(csr0), x0, y0);
        break;
      case 1:
        pe::kernels::spmv_sell_parallel(pe::kernels::csr_to_sell(csr0), x0,
                                        y0, pool);
        break;
      case 2:
        pe::kernels::spmv_ell_parallel(pe::kernels::csr_to_ell(csr0), x0,
                                       y0, pool);
        break;
      case 3:
        pe::kernels::spmv_coo_parallel(empty, x0, y0, pool);
        break;
    }
    EXPECT_EQ(y0, std::vector<double>(6, 0.0)) << "variant " << variant;
  }
}

TEST(FormatFeatures, ComputedFromCsr) {
  const auto csr = pe::kernels::coo_to_csr(small_coo());
  const auto f = pe::kernels::FormatFeatures::from_csr(csr);
  EXPECT_DOUBLE_EQ(f.rows, 2.0);
  EXPECT_DOUBLE_EQ(f.cols, 3.0);
  EXPECT_DOUBLE_EQ(f.nnz, 3.0);
  EXPECT_DOUBLE_EQ(f.mean_deg, 1.5);
  EXPECT_DOUBLE_EQ(f.deg_max, 2.0);
  EXPECT_DOUBLE_EQ(f.bandwidth, 2.0);
  EXPECT_DOUBLE_EQ(f.ell_padding, 4.0 / 3.0);
  const auto vec = f.as_vector();
  const auto names = pe::kernels::FormatFeatures::names();
  ASSERT_EQ(vec.size(), names.size());
}

TEST(FormatSelector, LearnsAPlantedFormatLandscape) {
  // Synthetic corpus with a planted rule: tall matrices (rows > cols) are
  // fastest in ELL, everything else in CSR. The trees must recover it.
  std::vector<pe::kernels::FormatSample> samples;
  for (int i = 0; i < 8; ++i) {
    pe::kernels::FormatSample s;
    const bool tall = i % 2 == 0;
    s.features.rows = tall ? 4000.0 + i : 1000.0 + i;
    s.features.cols = 1000.0;
    s.features.nnz = 8000.0;
    s.features.mean_deg = s.features.nnz / s.features.rows;
    s.features.deg_cv = 0.1;
    s.features.deg_max = 8.0;
    s.features.bandwidth = 900.0;
    s.features.ell_padding = 1.2;
    // seconds indexed by kAllSpmvFormats order: csr, csc, coo, ell, sell.
    s.seconds = tall ? std::array<double, 5>{4e-3, 6e-3, 7e-3, 1e-3, 2e-3}
                     : std::array<double, 5>{1e-3, 3e-3, 4e-3, 5e-3, 2e-3};
    samples.push_back(s);
  }
  const auto selector = pe::kernels::FormatSelector::train(samples);
  EXPECT_TRUE(selector.trained());
  EXPECT_EQ(selector.choose(samples[0].features),
            pe::kernels::SpmvFormat::kEll);
  EXPECT_EQ(selector.choose(samples[1].features),
            pe::kernels::SpmvFormat::kCsr);
  // Deterministic: retraining on the same corpus gives the same policy,
  // and predictions are positive seconds for every format.
  const auto again = pe::kernels::FormatSelector::train(samples);
  for (const auto& s : samples) {
    EXPECT_EQ(selector.choose(s.features), again.choose(s.features));
    for (const auto f : pe::kernels::kAllSpmvFormats)
      EXPECT_GT(selector.predict_seconds(s.features, f), 0.0);
  }
}

TEST(FormatSelector, RejectsDegenerateTrainingSets) {
  EXPECT_THROW((void)pe::kernels::FormatSelector::train({}), pe::Error);
  pe::kernels::FormatSample bad;
  bad.features.rows = 10.0;
  bad.seconds = {1e-3, 1e-3, 0.0, 1e-3, 1e-3};  // non-positive runtime
  EXPECT_THROW((void)pe::kernels::FormatSelector::train({bad}), pe::Error);
}

TEST(FormatSelector, FormatNamesAreStable) {
  using pe::kernels::SpmvFormat;
  EXPECT_EQ(pe::kernels::spmv_format_name(SpmvFormat::kCsr), "csr");
  EXPECT_EQ(pe::kernels::spmv_format_name(SpmvFormat::kCsc), "csc");
  EXPECT_EQ(pe::kernels::spmv_format_name(SpmvFormat::kCoo), "coo");
  EXPECT_EQ(pe::kernels::spmv_format_name(SpmvFormat::kEll), "ell");
  EXPECT_EQ(pe::kernels::spmv_format_name(SpmvFormat::kSell), "sell");
}

TEST(Features, PatternNames) {
  EXPECT_EQ(pe::kernels::pattern_name(SparsityPattern::kUniform),
            "uniform");
  EXPECT_EQ(pe::kernels::pattern_name(SparsityPattern::kBanded), "banded");
  EXPECT_EQ(pe::kernels::pattern_name(SparsityPattern::kPowerLaw),
            "powerlaw");
}

}  // namespace
