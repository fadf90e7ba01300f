#include "perfeng/kernels/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "perfeng/common/access_hook.hpp"
#include "perfeng/common/error.hpp"
#include "perfeng/parallel/parallel_for.hpp"
#include "perfeng/simd/vec.hpp"

namespace pe::kernels {

static_assert(kSellChunk == simd::kDoubleLanes,
              "SELL chunk height must equal the native double lane count");

void CooMatrix::normalize() {
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  std::vector<Triplet> merged;
  merged.reserve(entries.size());
  for (const Triplet& t : entries) {
    if (!merged.empty() && merged.back().row == t.row &&
        merged.back().col == t.col) {
      merged.back().value += t.value;
    } else {
      merged.push_back(t);
    }
  }
  entries = std::move(merged);
}

CsrMatrix coo_to_csr(const CooMatrix& coo) {
  PE_REQUIRE(coo.rows >= 1 && coo.cols >= 1, "matrix must be non-empty");
  CooMatrix sorted = coo;
  sorted.normalize();

  CsrMatrix csr;
  csr.rows = coo.rows;
  csr.cols = coo.cols;
  csr.row_ptr.assign(coo.rows + 1, 0);
  csr.col_idx.reserve(sorted.entries.size());
  csr.values.reserve(sorted.entries.size());
  for (const Triplet& t : sorted.entries) {
    PE_REQUIRE(t.row < coo.rows && t.col < coo.cols, "entry out of bounds");
    ++csr.row_ptr[t.row + 1];
    csr.col_idx.push_back(t.col);
    csr.values.push_back(t.value);
  }
  for (std::size_t r = 0; r < coo.rows; ++r)
    csr.row_ptr[r + 1] += csr.row_ptr[r];
  return csr;
}

CscMatrix coo_to_csc(const CooMatrix& coo) {
  PE_REQUIRE(coo.rows >= 1 && coo.cols >= 1, "matrix must be non-empty");
  CooMatrix sorted = coo;
  sorted.normalize();
  // Re-sort column-major.
  std::sort(sorted.entries.begin(), sorted.entries.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.col != b.col) return a.col < b.col;
              return a.row < b.row;
            });

  CscMatrix csc;
  csc.rows = coo.rows;
  csc.cols = coo.cols;
  csc.col_ptr.assign(coo.cols + 1, 0);
  csc.row_idx.reserve(sorted.entries.size());
  csc.values.reserve(sorted.entries.size());
  for (const Triplet& t : sorted.entries) {
    PE_REQUIRE(t.row < coo.rows && t.col < coo.cols, "entry out of bounds");
    ++csc.col_ptr[t.col + 1];
    csc.row_idx.push_back(t.row);
    csc.values.push_back(t.value);
  }
  for (std::size_t c = 0; c < coo.cols; ++c)
    csc.col_ptr[c + 1] += csc.col_ptr[c];
  return csc;
}

CooMatrix csr_to_coo(const CsrMatrix& csr) {
  CooMatrix coo;
  coo.rows = csr.rows;
  coo.cols = csr.cols;
  coo.entries.reserve(csr.nnz());
  for (std::size_t r = 0; r < csr.rows; ++r) {
    for (std::uint32_t i = csr.row_ptr[r]; i < csr.row_ptr[r + 1]; ++i) {
      coo.entries.push_back({static_cast<std::uint32_t>(r), csr.col_idx[i],
                             csr.values[i]});
    }
  }
  return coo;
}

std::size_t EllMatrix::nnz() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] != 0.0) ++count;
  return count;
}

double EllMatrix::padding_ratio() const {
  const std::size_t useful = nnz();
  return useful == 0 ? 0.0
                     : static_cast<double>(rows * width) /
                           static_cast<double>(useful);
}

EllMatrix csr_to_ell(const CsrMatrix& csr) {
  EllMatrix ell;
  ell.rows = csr.rows;
  ell.cols = csr.cols;
  for (std::size_t r = 0; r < csr.rows; ++r) {
    ell.width = std::max<std::size_t>(
        ell.width, csr.row_ptr[r + 1] - csr.row_ptr[r]);
  }
  ell.width = std::max<std::size_t>(ell.width, 1);
  ell.col_idx.assign(csr.rows * ell.width, 0);
  ell.values.assign(csr.rows * ell.width, 0.0);
  for (std::size_t r = 0; r < csr.rows; ++r) {
    std::size_t slot = 0;
    for (std::uint32_t i = csr.row_ptr[r]; i < csr.row_ptr[r + 1];
         ++i, ++slot) {
      ell.col_idx[r * ell.width + slot] = csr.col_idx[i];
      ell.values[r * ell.width + slot] = csr.values[i];
    }
  }
  return ell;
}

std::size_t SellMatrix::nnz() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] != 0.0) ++count;
  return count;
}

double SellMatrix::padding_ratio() const {
  const std::size_t useful = nnz();
  return useful == 0 ? 0.0
                     : static_cast<double>(values.size()) /
                           static_cast<double>(useful);
}

SellMatrix csr_to_sell(const CsrMatrix& csr, std::size_t sigma) {
  PE_REQUIRE(sigma == 1 || (sigma > 0 && sigma % kSellChunk == 0),
             "sigma must be 1 or a positive multiple of the chunk height");
  constexpr std::size_t c = kSellChunk;
  SellMatrix sell;
  sell.rows = csr.rows;
  sell.cols = csr.cols;
  sell.sigma = sigma;

  const std::size_t n_chunks = (csr.rows + c - 1) / c;
  const std::size_t padded_rows = n_chunks * c;

  // Permutation: within each sigma-window, stable-sort rows by descending
  // degree so a chunk's rows have similar width and padding stays small.
  sell.row_ids.resize(padded_rows);
  for (std::size_t r = 0; r < padded_rows; ++r)
    sell.row_ids[r] = r < csr.rows ? static_cast<std::uint32_t>(r)
                                   : SellMatrix::kSellPadRow;
  auto degree = [&csr](std::uint32_t r) {
    return csr.row_ptr[r + 1] - csr.row_ptr[r];
  };
  for (std::size_t w0 = 0; w0 < csr.rows; w0 += sigma) {
    const std::size_t w1 = std::min(csr.rows, w0 + sigma);
    std::stable_sort(sell.row_ids.begin() + static_cast<std::ptrdiff_t>(w0),
                     sell.row_ids.begin() + static_cast<std::ptrdiff_t>(w1),
                     [&degree](std::uint32_t a, std::uint32_t b) {
                       return degree(a) > degree(b);
                     });
  }

  // Chunk widths -> element offsets (slot-major: width * c elements).
  sell.chunk_ptr.assign(n_chunks + 1, 0);
  for (std::size_t ch = 0; ch < n_chunks; ++ch) {
    std::size_t width = 0;
    for (std::size_t l = 0; l < c; ++l) {
      const std::uint32_t r = sell.row_ids[ch * c + l];
      if (r != SellMatrix::kSellPadRow)
        width = std::max<std::size_t>(width, degree(r));
    }
    sell.chunk_ptr[ch + 1] =
        sell.chunk_ptr[ch] + static_cast<std::uint32_t>(width * c);
  }

  sell.col_idx.assign(sell.chunk_ptr[n_chunks], 0);
  sell.values.assign(sell.chunk_ptr[n_chunks], 0.0);
  for (std::size_t ch = 0; ch < n_chunks; ++ch) {
    const std::size_t base = sell.chunk_ptr[ch];
    for (std::size_t l = 0; l < c; ++l) {
      const std::uint32_t r = sell.row_ids[ch * c + l];
      if (r == SellMatrix::kSellPadRow) continue;
      std::size_t slot = 0;
      for (std::uint32_t i = csr.row_ptr[r]; i < csr.row_ptr[r + 1];
           ++i, ++slot) {
        sell.col_idx[base + slot * c + l] = csr.col_idx[i];
        sell.values[base + slot * c + l] = csr.values[i];
      }
    }
  }
  return sell;
}

namespace {

/// Shared body of the serial and chunk-parallel SELL SpMV: process one
/// chunk. Lane l walks original row row_ids[chunk*C + l] in CSR order;
/// the accumulate is deliberately *unfused* (acc + v * xv, two roundings)
/// so each lane reproduces spmv_csr's scalar arithmetic exactly.
void sell_chunk_spmv(const SellMatrix& a, const std::vector<double>& x,
                     std::vector<double>& y, std::size_t chunk) {
  using simd::VecD;
  constexpr std::size_t c = kSellChunk;
  const std::size_t base = a.chunk_ptr[chunk];
  const std::size_t width = (a.chunk_ptr[chunk + 1] - base) / c;
  VecD acc = VecD::zero();
  double xg[c];
  for (std::size_t slot = 0; slot < width; ++slot) {
    const std::size_t off = base + slot * c;
    for (std::size_t l = 0; l < c; ++l) xg[l] = x[a.col_idx[off + l]];
    acc = acc + VecD::load(a.values.data() + off) * VecD::load(xg);
  }
  double out[c];
  acc.store(out);
  for (std::size_t l = 0; l < c; ++l) {
    const std::uint32_t r = a.row_ids[chunk * c + l];
    if (r != SellMatrix::kSellPadRow) y[r] = out[l];
  }
}

}  // namespace

void spmv_sell(const SellMatrix& a, const std::vector<double>& x,
               std::vector<double>& y) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  for (std::size_t ch = 0; ch < a.chunks(); ++ch)
    sell_chunk_spmv(a, x, y, ch);
}

void spmv_sell_parallel(const SellMatrix& a, const std::vector<double>& x,
                        std::vector<double>& y, ThreadPool& pool) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  constexpr std::size_t c = kSellChunk;
  parallel_for(
      pool, 0, a.chunks(),
      [&](std::size_t ch) {
        // Each lane's target row is recorded individually: the sigma
        // permutation scatters a chunk's rows, so there is no contiguous
        // range to report.
        for (std::size_t l = 0; l < c; ++l) {
          const std::uint32_t r = a.row_ids[ch * c + l];
          if (r != SellMatrix::kSellPadRow)
            access_record(y.data(), sizeof(double), r, r + 1, true,
                          "spmv.y");
        }
        sell_chunk_spmv(a, x, y, ch);
      },
      Schedule::kDynamic, 64);
}

void spmv_ell_parallel(const EllMatrix& a, const std::vector<double>& x,
                       std::vector<double>& y, ThreadPool& pool) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  parallel_for(
      pool, 0, a.rows,
      [&](std::size_t r) {
        double acc = 0.0;
        for (std::size_t slot = 0; slot < a.width; ++slot)
          acc +=
              a.values[r * a.width + slot] * x[a.col_idx[r * a.width + slot]];
        access_record(y.data(), sizeof(double), r, r + 1, true, "spmv.y");
        y[r] = acc;
      },
      Schedule::kDynamic, 256);
}

void spmv_coo_parallel(const CooMatrix& a, const std::vector<double>& x,
                       std::vector<double>& y, ThreadPool& pool) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  for (std::size_t e = 1; e < a.entries.size(); ++e)
    PE_REQUIRE(a.entries[e - 1].row <= a.entries[e].row,
               "spmv_coo_parallel requires row-sorted entries "
               "(call normalize() first)");

  const std::size_t nnz = a.entries.size();
  const std::size_t parts =
      std::min<std::size_t>(pool.size() + 1, std::max<std::size_t>(1, nnz));
  // Entry-balanced boundaries, then advanced to the next row change so no
  // row straddles two parts — each part owns a disjoint slice of y.
  std::vector<std::size_t> bounds(parts + 1, nnz);
  bounds[0] = 0;
  for (std::size_t p = 1; p < parts; ++p) {
    std::size_t e = std::max(bounds[p - 1], nnz * p / parts);
    while (e < nnz && e > 0 && a.entries[e - 1].row == a.entries[e].row)
      ++e;
    bounds[p] = e;
  }

  parallel_for(
      pool, 0, parts,
      [&](std::size_t p) {
        const std::size_t lo = bounds[p], hi = bounds[p + 1];
        // Zero this part's row slice: rows between parts' slices (fully
        // empty rows) are zeroed by whichever neighbour's slice covers
        // them below.
        const std::size_t row_lo =
            p == 0 ? 0 : (lo < nnz ? a.entries[lo].row : a.rows);
        const std::size_t row_hi =
            p + 1 == parts ? a.rows
                           : (hi < nnz ? a.entries[hi].row : a.rows);
        if (row_lo < row_hi) {
          access_record(y.data(), sizeof(double), row_lo, row_hi, true,
                        "spmv.y");
          std::fill(y.begin() + static_cast<std::ptrdiff_t>(row_lo),
                    y.begin() + static_cast<std::ptrdiff_t>(row_hi), 0.0);
          for (std::size_t e = lo; e < hi; ++e) {
            const Triplet& t = a.entries[e];
            y[t.row] += t.value * x[t.col];
          }
        }
      },
      Schedule::kDynamic, 1);
}

void spmv_ell(const EllMatrix& a, const std::vector<double>& x,
              std::vector<double>& y) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  for (std::size_t r = 0; r < a.rows; ++r) {
    double acc = 0.0;
    for (std::size_t slot = 0; slot < a.width; ++slot) {
      // Padding has value 0.0, so it contributes nothing; the regular
      // iteration count is exactly what makes ELL vectorizable.
      acc += a.values[r * a.width + slot] * x[a.col_idx[r * a.width + slot]];
    }
    y[r] = acc;
  }
}

void spmv_coo(const CooMatrix& a, const std::vector<double>& x,
              std::vector<double>& y) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (const Triplet& t : a.entries) y[t.row] += t.value * x[t.col];
}

void spmv_csr(const CsrMatrix& a, const std::vector<double>& x,
              std::vector<double>& y) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  for (std::size_t r = 0; r < a.rows; ++r) {
    double acc = 0.0;
    for (std::uint32_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i)
      acc += a.values[i] * x[a.col_idx[i]];
    y[r] = acc;
  }
}

void spmv_csc(const CscMatrix& a, const std::vector<double>& x,
              std::vector<double>& y) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t c = 0; c < a.cols; ++c) {
    const double xc = x[c];
    for (std::uint32_t i = a.col_ptr[c]; i < a.col_ptr[c + 1]; ++i)
      y[a.row_idx[i]] += a.values[i] * xc;
  }
}

void spmv_csr_parallel(const CsrMatrix& a, const std::vector<double>& x,
                       std::vector<double>& y, ThreadPool& pool) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  parallel_for(
      pool, 0, a.rows,
      [&](std::size_t r) {
        double acc = 0.0;
        for (std::uint32_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i)
          acc += a.values[i] * x[a.col_idx[i]];
        access_record(y.data(), sizeof(double), r, r + 1, true, "spmv.y");
        y[r] = acc;
      },
      Schedule::kDynamic, 256);
}

std::vector<std::size_t> balanced_row_partition(const CsrMatrix& a,
                                                std::size_t parts) {
  PE_REQUIRE(parts >= 1, "parts must be positive");
  std::vector<std::size_t> bounds(parts + 1, a.rows);
  bounds[0] = 0;
  // Cost of rows [0, r) is r + row_ptr[r]: one unit per row (its y write
  // and row_ptr read) plus one per nonzero. The sum can pass 2^32.
  const std::uint64_t total =
      a.rows + (a.row_ptr.empty() ? 0 : std::uint64_t{a.row_ptr[a.rows]});
  for (std::size_t p = 1; p < parts; ++p) {
    // First row whose prefix cost reaches this part's share; rows are
    // never split, so a very heavy row simply owns its part alone.
    const std::uint64_t target = total * p / parts;
    std::size_t lo = bounds[p - 1], hi = a.rows;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (mid + std::uint64_t{a.row_ptr[mid]} < target)
        lo = mid + 1;
      else
        hi = mid;
    }
    bounds[p] = lo;
  }
  return bounds;
}

void spmv_csr_parallel_balanced(const CsrMatrix& a,
                                const std::vector<double>& x,
                                std::vector<double>& y, ThreadPool& pool) {
  PE_REQUIRE(x.size() == a.cols, "x size mismatch");
  PE_REQUIRE(y.size() == a.rows, "y size mismatch");
  const std::size_t parts =
      std::min<std::size_t>((pool.size() + 1) * kSpmvChunksPerLane,
                            std::max<std::size_t>(1, a.rows));
  const std::vector<std::size_t> bounds = balanced_row_partition(a, parts);
  parallel_for(
      pool, 0, parts,
      [&](std::size_t p) {
        access_record(y.data(), sizeof(double), bounds[p], bounds[p + 1],
                      true, "spmv.y");
        for (std::size_t r = bounds[p]; r < bounds[p + 1]; ++r) {
          double acc = 0.0;
          for (std::uint32_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i)
            acc += a.values[i] * x[a.col_idx[i]];
          y[r] = acc;
        }
      },
      Schedule::kDynamic, 1);
}

std::string pattern_name(SparsityPattern p) {
  switch (p) {
    case SparsityPattern::kUniform: return "uniform";
    case SparsityPattern::kBanded: return "banded";
    case SparsityPattern::kPowerLaw: return "powerlaw";
  }
  return "?";
}

CooMatrix generate_sparse(std::size_t rows, std::size_t cols, double density,
                          SparsityPattern pattern, Rng& rng) {
  PE_REQUIRE(rows >= 1 && cols >= 1, "matrix must be non-empty");
  PE_REQUIRE(density > 0.0 && density <= 1.0, "density must be in (0,1]");
  CooMatrix coo;
  coo.rows = rows;
  coo.cols = cols;
  const auto target_nnz = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(rows) *
                                  static_cast<double>(cols) * density));
  coo.entries.reserve(target_nnz);

  auto value = [&rng] { return rng.next_range_double(0.1, 1.0); };

  switch (pattern) {
    case SparsityPattern::kUniform: {
      for (std::size_t e = 0; e < target_nnz; ++e) {
        coo.entries.push_back(
            {static_cast<std::uint32_t>(rng.next_range(0, rows - 1)),
             static_cast<std::uint32_t>(rng.next_range(0, cols - 1)),
             value()});
      }
      break;
    }
    case SparsityPattern::kBanded: {
      // Bandwidth chosen so the band holds the target density.
      const std::size_t per_row =
          std::max<std::size_t>(1, target_nnz / rows);
      const std::size_t half_band = std::max<std::size_t>(1, per_row / 2 + 1);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t diag =
            cols > 1 ? r * (cols - 1) / std::max<std::size_t>(1, rows - 1)
                     : 0;
        const std::size_t lo = diag >= half_band ? diag - half_band : 0;
        const std::size_t hi = std::min(cols - 1, diag + half_band);
        for (std::size_t e = 0; e < per_row; ++e) {
          coo.entries.push_back(
              {static_cast<std::uint32_t>(r),
               static_cast<std::uint32_t>(rng.next_range(lo, hi)), value()});
        }
      }
      break;
    }
    case SparsityPattern::kPowerLaw: {
      // Zipf row popularity: a few rows hold most of the non-zeros.
      for (std::size_t e = 0; e < target_nnz; ++e) {
        const std::size_t r =
            static_cast<std::size_t>(rng.next_zipf(rows, 1.1));
        coo.entries.push_back(
            {static_cast<std::uint32_t>(r),
             static_cast<std::uint32_t>(rng.next_range(0, cols - 1)),
             value()});
      }
      break;
    }
  }
  coo.normalize();
  return coo;
}

std::vector<std::string> sparse_feature_names() {
  return {"rows",      "cols",       "nnz",      "density",
          "mean_deg",  "deg_cv",     "bandwidth"};
}

std::vector<double> sparse_features(const CsrMatrix& m) {
  const double rows = static_cast<double>(m.rows);
  const double cols = static_cast<double>(m.cols);
  const double nnz = static_cast<double>(m.nnz());

  double deg_sum = 0.0, deg_sq = 0.0, band = 0.0;
  for (std::size_t r = 0; r < m.rows; ++r) {
    const double deg =
        static_cast<double>(m.row_ptr[r + 1] - m.row_ptr[r]);
    deg_sum += deg;
    deg_sq += deg * deg;
    for (std::uint32_t i = m.row_ptr[r]; i < m.row_ptr[r + 1]; ++i) {
      const double spread = std::abs(static_cast<double>(m.col_idx[i]) -
                                     static_cast<double>(r));
      band = std::max(band, spread);
    }
  }
  const double mean_deg = rows > 0 ? deg_sum / rows : 0.0;
  const double var_deg =
      rows > 0 ? std::max(0.0, deg_sq / rows - mean_deg * mean_deg) : 0.0;
  const double cv = mean_deg > 0.0 ? std::sqrt(var_deg) / mean_deg : 0.0;

  return {rows, cols, nnz, nnz / (rows * cols), mean_deg, cv, band};
}

}  // namespace pe::kernels
