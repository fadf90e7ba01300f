#pragma once

/// \file sparse.hpp
/// Sparse matrix formats and SpMV — the Assignment 3 kernel family.
///
/// The assignment provides SpMV "based on the three classical storage
/// models, CSR, CSC, and COO" and asks students to model them
/// statistically. The formats here convert losslessly between each other,
/// agree numerically on y = A x, and come with the synthetic generators
/// (uniform random, banded, power-law rows) that build the training corpus
/// for the statistical models.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfeng/common/rng.hpp"
#include "perfeng/parallel/thread_pool.hpp"

namespace pe::kernels {

/// One entry of a coordinate-format matrix.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

/// Coordinate (COO) storage: an unordered list of (row, col, value).
struct CooMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<Triplet> entries;

  [[nodiscard]] std::size_t nnz() const { return entries.size(); }

  /// Sort entries row-major (row, then column) and sum duplicates.
  void normalize();
};

/// Compressed sparse row storage.
struct CsrMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> row_ptr;  ///< rows + 1 offsets
  std::vector<std::uint32_t> col_idx;  ///< nnz column indices
  std::vector<double> values;          ///< nnz values

  [[nodiscard]] std::size_t nnz() const { return values.size(); }
};

/// Compressed sparse column storage.
struct CscMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> col_ptr;  ///< cols + 1 offsets
  std::vector<std::uint32_t> row_idx;  ///< nnz row indices
  std::vector<double> values;          ///< nnz values

  [[nodiscard]] std::size_t nnz() const { return values.size(); }
};

/// ELLPACK storage: fixed width = max row degree, padded with zeros.
/// Vector-friendly (regular accesses) but wasteful on skewed matrices —
/// the padding_ratio is the feature that predicts when ELL loses.
struct EllMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t width = 0;  ///< entries stored per row (max degree)
  std::vector<std::uint32_t> col_idx;  ///< rows*width, row-major, padded
  std::vector<double> values;          ///< rows*width, 0.0 in padding

  [[nodiscard]] std::size_t nnz() const;  ///< non-padding entries

  /// Stored slots / useful entries (1.0 = no padding waste).
  [[nodiscard]] double padding_ratio() const;
};

/// SELL-C-σ chunk height. Fixed at the native double-vector lane count
/// (pe::simd::kDoubleLanes; sparse.cpp static_asserts the match) so one
/// chunk's rows map one-to-one onto SIMD lanes.
inline constexpr std::size_t kSellChunk = 4;

/// SELL-C-σ storage (Kreutzer et al.): rows are grouped into chunks of
/// C = kSellChunk, each chunk padded only to *its own* widest row (not the
/// global max like ELL), and stored slot-major so slot s of all C rows is
/// contiguous — the SIMD SpMV walks lanes *across* rows, which keeps each
/// row's accumulation order identical to scalar CSR (exact equality, see
/// spmv_sell). Within windows of σ rows, rows are sorted by descending
/// degree before chunking so similar-degree rows share a chunk and padding
/// shrinks; `row_ids` remembers the permutation.
struct SellMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t sigma = 1;  ///< sorting-window height used at build time

  /// Chunk c's elements live at [chunk_ptr[c], chunk_ptr[c+1]) in
  /// col_idx/values; width_c = (chunk_ptr[c+1] - chunk_ptr[c]) / C.
  std::vector<std::uint32_t> chunk_ptr;
  /// Original row handled by lane l of chunk c, at [c * C + l];
  /// kSellPadRow marks a padding lane (rows not a multiple of C).
  std::vector<std::uint32_t> row_ids;
  std::vector<std::uint32_t> col_idx;  ///< slot-major, 0 in padding
  std::vector<double> values;          ///< slot-major, 0.0 in padding

  static constexpr std::uint32_t kSellPadRow = 0xffffffffu;

  [[nodiscard]] std::size_t chunks() const {
    return chunk_ptr.empty() ? 0 : chunk_ptr.size() - 1;
  }
  [[nodiscard]] std::size_t nnz() const;  ///< non-padding entries

  /// Stored slots / useful entries (1.0 = no padding waste). Bounded by
  /// ELL's ratio from below; approaches 1.0 as sigma grows.
  [[nodiscard]] double padding_ratio() const;
};

/// Format conversions (all normalize duplicates via COO).
[[nodiscard]] CsrMatrix coo_to_csr(const CooMatrix& coo);
[[nodiscard]] CscMatrix coo_to_csc(const CooMatrix& coo);
[[nodiscard]] CooMatrix csr_to_coo(const CsrMatrix& csr);
[[nodiscard]] EllMatrix csr_to_ell(const CsrMatrix& csr);

/// Build SELL-C-σ from CSR. `sigma` is the degree-sorting window in rows
/// (1 = no reordering; must be a multiple of kSellChunk or 1). The sort is
/// stable, so equal-degree rows keep their original order.
[[nodiscard]] SellMatrix csr_to_sell(const CsrMatrix& csr,
                                     std::size_t sigma = 32);

/// y = A x for each format (y is overwritten; sizes must match).
void spmv_coo(const CooMatrix& a, const std::vector<double>& x,
              std::vector<double>& y);
void spmv_csr(const CsrMatrix& a, const std::vector<double>& x,
              std::vector<double>& y);
void spmv_csc(const CscMatrix& a, const std::vector<double>& x,
              std::vector<double>& y);
void spmv_ell(const EllMatrix& a, const std::vector<double>& x,
              std::vector<double>& y);

/// SIMD SpMV over SELL-C-σ: one vector lane per row, unfused multiply-add
/// so every row's sum is computed in exactly the order and rounding of
/// `spmv_csr` — results are equal (operator==) for finite inputs. Padding
/// contributes `0.0 * x[0]`, which never changes a finite sum.
void spmv_sell(const SellMatrix& a, const std::vector<double>& x,
               std::vector<double>& y);

/// Row-parallel CSR SpMV (dynamic scheduling absorbs row imbalance).
void spmv_csr_parallel(const CsrMatrix& a, const std::vector<double>& x,
                       std::vector<double>& y, ThreadPool& pool);

/// Chunk-parallel SELL SpMV. Chunks own disjoint rows (row_ids is a
/// permutation), so this is race-free and matches `spmv_sell` exactly.
void spmv_sell_parallel(const SellMatrix& a, const std::vector<double>& x,
                        std::vector<double>& y, ThreadPool& pool);

/// Row-parallel ELL SpMV; matches `spmv_ell` exactly.
void spmv_ell_parallel(const EllMatrix& a, const std::vector<double>& x,
                       std::vector<double>& y, ThreadPool& pool);

/// Entry-parallel COO SpMV. Requires `a` to be normalized (row-sorted):
/// the entry list is cut into one entry-balanced part per lane (workers
/// plus the calling thread), each boundary moved to a row edge so every
/// part owns a disjoint row range of y; lanes claim parts one at a time.
/// Throws pe::Error on out-of-order rows. Matches `spmv_coo` exactly
/// (same per-row accumulation order).
void spmv_coo_parallel(const CooMatrix& a, const std::vector<double>& x,
                       std::vector<double>& y, ThreadPool& pool);

/// Split [0, rows) into `parts + 1` boundaries so each part costs about
/// the same, counting one unit per row plus one per non-zero (the
/// row-granular form of merge-path SpMV, Merrill & Garland, SC'16).
/// `r + row_ptr[r]` is the cost of rows [0, r), so boundary p is a
/// lower-bound search for `p * (rows + nnz) / parts`. A part never costs
/// more than its share (rounded up) plus its heaviest row. Boundaries are
/// non-decreasing; parts with no rows are empty, never negative.
[[nodiscard]] std::vector<std::size_t> balanced_row_partition(
    const CsrMatrix& a, std::size_t parts);

/// Parts per lane that `spmv_csr_parallel_balanced` cuts. Equal cost is
/// not equal time (rows miss on x differently, and a lane may start late),
/// so lanes that finish early claim the parts that are left. More parts
/// per lane ran little faster, but each part is two events for an
/// installed tracer: at 8 or 16 per lane, perfbench's traced
/// short_regions run overflowed the tracer's fixed per-lane rings.
inline constexpr std::size_t kSpmvChunksPerLane = 4;

/// Row-parallel CSR SpMV over `kSpmvChunksPerLane` parts per lane (workers
/// plus the calling thread), boundaries from `balanced_row_partition`,
/// each part one dynamic claim. Matches `spmv_csr` exactly (rows are never
/// split, so every row keeps the serial summation order).
void spmv_csr_parallel_balanced(const CsrMatrix& a,
                                const std::vector<double>& x,
                                std::vector<double>& y, ThreadPool& pool);

// ----------------------------------------------------------------- corpus

/// Structure classes the generators produce (the statistical model's
/// categorical feature).
enum class SparsityPattern { kUniform, kBanded, kPowerLaw };

[[nodiscard]] std::string pattern_name(SparsityPattern p);

/// Generate a rows x cols matrix with ~density fraction of non-zeros:
///  - kUniform:  entries scattered uniformly;
///  - kBanded:   entries within a band around the diagonal (good x reuse);
///  - kPowerLaw: per-row degree follows a Zipf law (imbalanced rows).
[[nodiscard]] CooMatrix generate_sparse(std::size_t rows, std::size_t cols,
                                        double density,
                                        SparsityPattern pattern, Rng& rng);

/// Feature vector used by the Assignment 3 statistical models:
/// {rows, cols, nnz, density, mean row degree, row-degree CV, bandwidth}.
[[nodiscard]] std::vector<double> sparse_features(const CsrMatrix& m);

/// Names matching `sparse_features` order.
[[nodiscard]] std::vector<std::string> sparse_feature_names();

}  // namespace pe::kernels
