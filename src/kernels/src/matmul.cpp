#include "perfeng/kernels/matmul.hpp"

#include <algorithm>
#include <cmath>

#include "perfeng/common/access_hook.hpp"
#include "perfeng/common/aligned_buffer.hpp"
#include "perfeng/common/error.hpp"
#include "perfeng/machine/machine.hpp"
#include "perfeng/parallel/parallel_for.hpp"
#include "perfeng/simd/vec.hpp"

namespace pe::kernels {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  PE_REQUIRE(rows >= 1 && cols >= 1, "matrix must be non-empty");
}

void Matrix::randomize(Rng& rng) {
  for (double& v : data_) v = rng.next_range_double(-1.0, 1.0);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  PE_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
             "shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

namespace {

void check_shapes(const Matrix& a, const Matrix& b, const Matrix& c) {
  PE_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  PE_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
             "output shape mismatch");
}

}  // namespace

void matmul_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  check_shapes(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a(i, kk) * b(kk, j);
      c(i, j) = acc;
    }
  }
}

void matmul_interchanged(const Matrix& a, const Matrix& b, Matrix& c) {
  check_shapes(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) c(i, j) = 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a(i, kk);
      for (std::size_t j = 0; j < n; ++j) c(i, j) += aik * b(kk, j);
    }
  }
}

void matmul_tiled(const Matrix& a, const Matrix& b, Matrix& c,
                  std::size_t tile) {
  check_shapes(a, b, c);
  PE_REQUIRE(tile >= 1, "tile must be positive");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) c(i, j) = 0.0;

  for (std::size_t i0 = 0; i0 < m; i0 += tile) {
    const std::size_t i1 = std::min(m, i0 + tile);
    for (std::size_t k0 = 0; k0 < k; k0 += tile) {
      const std::size_t k1 = std::min(k, k0 + tile);
      for (std::size_t j0 = 0; j0 < n; j0 += tile) {
        const std::size_t j1 = std::min(n, j0 + tile);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const double aik = a(i, kk);
            for (std::size_t j = j0; j < j1; ++j) c(i, j) += aik * b(kk, j);
          }
        }
      }
    }
  }
}

void matmul_parallel(const Matrix& a, const Matrix& b, Matrix& c,
                     ThreadPool& pool, std::size_t tile) {
  check_shapes(a, b, c);
  PE_REQUIRE(tile >= 1, "tile must be positive");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const std::size_t row_blocks = (m + tile - 1) / tile;

  parallel_for(pool, 0, row_blocks, [&](std::size_t block) {
    const std::size_t i0 = block * tile;
    const std::size_t i1 = std::min(m, i0 + tile);
    for (std::size_t i = i0; i < i1; ++i)
      for (std::size_t j = 0; j < n; ++j) c(i, j) = 0.0;
    for (std::size_t k0 = 0; k0 < k; k0 += tile) {
      const std::size_t k1 = std::min(k, k0 + tile);
      for (std::size_t j0 = 0; j0 < n; j0 += tile) {
        const std::size_t j1 = std::min(n, j0 + tile);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const double aik = a(i, kk);
            for (std::size_t j = j0; j < j1; ++j) c(i, j) += aik * b(kk, j);
          }
        }
      }
    }
  });
}

namespace {

// Register tile of the packed microkernel: a 4x8 block of C accumulators
// stays resident in registers across the whole kc-deep update.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

/// Pack a kcb-deep strip of up to kNr columns of B (starting at j0) into
/// k-major contiguous layout, zero-padding missing columns so the
/// microkernel never branches on the edge.
void pack_b_strip(const Matrix& b, std::size_t k0, std::size_t kcb,
                  std::size_t j0, std::size_t width, double* dst) {
  for (std::size_t kk = 0; kk < kcb; ++kk) {
    const double* row = b.data() + (k0 + kk) * b.cols() + j0;
    std::size_t j = 0;
    for (; j < width; ++j) dst[kk * kNr + j] = row[j];
    for (; j < kNr; ++j) dst[kk * kNr + j] = 0.0;
  }
}

/// Pack a kcb-deep strip of up to kMr rows of A (starting at i0) into
/// k-major contiguous layout, zero-padding missing rows.
void pack_a_strip(const Matrix& a, std::size_t i0, std::size_t height,
                  std::size_t k0, std::size_t kcb, double* dst) {
  for (std::size_t kk = 0; kk < kcb; ++kk)
    for (std::size_t r = 0; r < kMr; ++r)
      dst[kk * kMr + r] = r < height ? a(i0 + r, k0 + kk) : 0.0;
}

/// C[0..rows)[0..cols) += packed-A-strip * packed-B-strip. The accumulator
/// block covers the full kMr x kNr register tile (padding contributes
/// zeros); only the writeback is guarded for edge tiles.
///
/// Each C row is two VecD accumulators (kNr = 2 * VecD::lanes) updated by
/// mul_add — fused to one rounding per update on the AVX2+FMA backend,
/// which is why the packed path promises a small ULP envelope against the
/// scalar references rather than bit-equality (see docs/simd.md).
void microkernel(const double* ap, const double* bp, std::size_t kcb,
                 double* c, std::size_t ldc, std::size_t rows,
                 std::size_t cols) {
  using simd::VecD;
  static_assert(kNr == 2 * VecD::lanes,
                "register tile is two native double vectors wide");
  VecD acc_lo[kMr], acc_hi[kMr];
  for (std::size_t r = 0; r < kMr; ++r) {
    acc_lo[r] = VecD::zero();
    acc_hi[r] = VecD::zero();
  }
  for (std::size_t kk = 0; kk < kcb; ++kk) {
    const double* arow = ap + kk * kMr;
    const VecD b_lo = VecD::load(bp + kk * kNr);
    const VecD b_hi = VecD::load(bp + kk * kNr + VecD::lanes);
    for (std::size_t r = 0; r < kMr; ++r) {
      const VecD av = VecD::broadcast(arow[r]);
      acc_lo[r] = av.mul_add(b_lo, acc_lo[r]);
      acc_hi[r] = av.mul_add(b_hi, acc_hi[r]);
    }
  }
  if (rows == kMr && cols == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      double* crow = c + r * ldc;
      (VecD::load(crow) + acc_lo[r]).store(crow);
      (VecD::load(crow + VecD::lanes) + acc_hi[r]).store(crow + VecD::lanes);
    }
  } else {
    double acc[kMr][kNr];
    for (std::size_t r = 0; r < kMr; ++r) {
      acc_lo[r].store(&acc[r][0]);
      acc_hi[r].store(&acc[r][VecD::lanes]);
    }
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += acc[r][j];
  }
}

std::size_t round_down_to(std::size_t v, std::size_t unit,
                          std::size_t floor_v) {
  return std::max(v - v % unit, floor_v);
}

}  // namespace

MatmulBlocking MatmulBlocking::from_machine(const machine::Machine& m) {
  MatmulBlocking blk;
  const auto& levels = m.hierarchy;
  const std::size_t cache_levels =
      levels.size() > 1 ? levels.size() - 1 : 0;
  // kc: one kMr x kc A strip plus one kc x kNr B strip resident in the
  // fastest level while the microkernel streams them.
  if (cache_levels >= 1 && levels[0].capacity > 0)
    blk.kc = std::clamp<std::size_t>(
        levels[0].capacity / ((kMr + kNr) * sizeof(double)), 64, 1024);
  // mc: the packed mc x kc A panel should occupy about half of the next
  // level so B strips and C rows fit beside it.
  if (cache_levels >= 2 && levels[1].capacity > 0)
    blk.mc = round_down_to(
        std::clamp<std::size_t>(
            levels[1].capacity / (2 * blk.kc * sizeof(double)), kMr, 2048),
        kMr, kMr);
  // nc: the shared kc x nc B panel should occupy about half of the
  // largest cache (largest_cache_bytes falls back to 2 MiB).
  blk.nc = round_down_to(
      std::clamp<std::size_t>(
          m.largest_cache_bytes() / (2 * blk.kc * sizeof(double)), kNr,
          8192),
      kNr, kNr);
  return blk;
}

void matmul_parallel_packed(const Matrix& a, const Matrix& b, Matrix& c,
                            ThreadPool& pool,
                            const MatmulBlocking& blocking) {
  check_shapes(a, b, c);
  PE_REQUIRE(blocking.mc >= 1 && blocking.kc >= 1 && blocking.nc >= 1,
             "blocking parameters must be positive");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const std::size_t lanes = pool.size() + 1;
  // Clamp panels to the problem and round to whole register tiles. A row
  // panel is the unit of parallel work, so mc is also capped at one
  // panel's share per lane (workers plus the calling thread): a small m
  // would otherwise be a single panel that the caller runs alone.
  const std::size_t mc =
      std::min(round_down_to(blocking.mc, kMr, kMr),
               ((m + lanes - 1) / lanes + kMr - 1) / kMr * kMr);
  const std::size_t kc = std::min(blocking.kc, k);
  const std::size_t nc =
      std::min(round_down_to(blocking.nc, kNr, kNr),
               (n + kNr - 1) / kNr * kNr);

  const std::size_t a_panel_elems = mc * kc;
  AlignedBuffer<double> a_pack(lanes * a_panel_elems);
  AlignedBuffer<double> b_pack(nc * kc);

  parallel_for_chunks(
      pool, 0, m,
      [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
        access_record(c.data(), sizeof(double), lo * n, hi * n, true,
                      "matmul.c");
        std::fill(c.data() + lo * n, c.data() + hi * n, 0.0);
      });

  for (std::size_t jc = 0; jc < n; jc += nc) {
    const std::size_t ncb = std::min(nc, n - jc);
    const std::size_t b_strips = (ncb + kNr - 1) / kNr;
    for (std::size_t pc = 0; pc < k; pc += kc) {
      const std::size_t kcb = std::min(kc, k - pc);
      // Pack the shared kcb x ncb panel of B once; all lanes reuse it.
      parallel_for(
          pool, 0, b_strips,
          [&](std::size_t s) {
            const std::size_t j0 = jc + s * kNr;
            access_record(b_pack.data(), sizeof(double), s * kNr * kcb,
                          (s + 1) * kNr * kcb, true, "matmul.b_pack");
            pack_b_strip(b, pc, kcb, j0, std::min(kNr, n - j0),
                         b_pack.data() + s * kNr * kcb);
          },
          Schedule::kDynamic, 8);
      // Row panels in parallel; each lane packs A into its own slot.
      const std::size_t ic_blocks = (m + mc - 1) / mc;
      parallel_for_chunks(
          pool, 0, ic_blocks,
          [&](std::size_t lo, std::size_t hi, std::size_t lane) {
            // a_pack is lane-indexed private scratch — partitioned by
            // lane, not by chunk — so it is deliberately not recorded
            // (see the AccessChecker model in docs/analysis.md).
            double* apack = a_pack.data() + lane * a_panel_elems;
            access_record(b_pack.data(), sizeof(double), 0,
                          b_strips * kNr * kcb, false, "matmul.b_pack");
            for (std::size_t blk = lo; blk < hi; ++blk) {
              const std::size_t i0 = blk * mc;
              const std::size_t mcb = std::min(mc, m - i0);
              access_record(c.data(), sizeof(double), i0 * n,
                            (i0 + mcb) * n, true, "matmul.c");
              const std::size_t a_strips = (mcb + kMr - 1) / kMr;
              for (std::size_t t = 0; t < a_strips; ++t)
                pack_a_strip(a, i0 + t * kMr,
                             std::min(kMr, mcb - t * kMr), pc, kcb,
                             apack + t * kMr * kcb);
              for (std::size_t s = 0; s < b_strips; ++s) {
                const std::size_t j0 = jc + s * kNr;
                const double* bp = b_pack.data() + s * kNr * kcb;
                for (std::size_t t = 0; t < a_strips; ++t)
                  microkernel(apack + t * kMr * kcb, bp, kcb,
                              c.data() + (i0 + t * kMr) * n + j0, n,
                              std::min(kMr, mcb - t * kMr),
                              std::min(kNr, n - j0));
              }
            }
          },
          Schedule::kDynamic, 1);
    }
  }
}

double matmul_flops(std::size_t m, std::size_t k, std::size_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

double matmul_min_bytes(std::size_t m, std::size_t k, std::size_t n) {
  const double a = static_cast<double>(m) * static_cast<double>(k);
  const double b = static_cast<double>(k) * static_cast<double>(n);
  const double c = static_cast<double>(m) * static_cast<double>(n);
  return (a + b + 2.0 * c) * sizeof(double);  // C read+written
}

}  // namespace pe::kernels
