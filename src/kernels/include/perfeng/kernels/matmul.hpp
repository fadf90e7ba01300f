#pragma once

/// \file matmul.hpp
/// Dense matrix multiplication — the Assignment 1 kernel.
///
/// The assignment hands students a naive triple loop and asks for a
/// Roofline model, then for optimizations "like loop reordering and loop
/// tiling" whose effect the model must capture. The variants here are the
/// canonical progression: naive ijk (column-walking B), interchanged ikj
/// (all-sequential streams), tiled (cache blocking), and a thread-parallel
/// tiled version on the toolbox's thread pool.

#include <cstddef>
#include <vector>

#include "perfeng/common/rng.hpp"
#include "perfeng/parallel/thread_pool.hpp"

namespace pe::machine {
struct Machine;
}

namespace pe::kernels {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Fill with uniform values in [-1, 1) from a deterministic RNG.
  void randomize(Rng& rng);

  /// Max absolute elementwise difference (matrices must match in shape).
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B with the naive i-j-k loop order (B walked down columns).
void matmul_naive(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B with the i-k-j interchange (all rows streamed sequentially).
void matmul_interchanged(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B with square cache blocking of edge `tile`.
void matmul_tiled(const Matrix& a, const Matrix& b, Matrix& c,
                  std::size_t tile = 64);

/// C = A * B, tiled, with row-blocks distributed over the pool.
void matmul_parallel(const Matrix& a, const Matrix& b, Matrix& c,
                     ThreadPool& pool, std::size_t tile = 64);

/// Cache-blocking parameters for the packed microkernel (BLIS-style
/// nomenclature): the kernel packs `mc x kc` panels of A and `kc x nc`
/// panels of B into contiguous tiles, then runs a register-blocked
/// microkernel over them. The register tile (mr x nr) is a compile-time
/// constant of the kernel, VecD::lanes x 2*VecD::lanes (4x8 on AVX2 and
/// generic builds, 8x16 on AVX-512); these three only set the cache
/// footprint.
struct MatmulBlocking {
  /// A-panel rows (mc*kc doubles ~ half of L2). The packed kernel caps
  /// it at m / lanes, rounded up to the register tile, so every lane gets
  /// a row panel.
  std::size_t mc = 128;
  std::size_t kc = 256;   ///< panel depth    (kc*nr doubles ~ part of L1)
  std::size_t nc = 2048;  ///< B-panel cols   (kc*nc doubles ~ half of LLC)

  /// Derive the panel sizes from a machine description's cache capacities
  /// (kc from the fastest level, mc from the next, nc from the largest
  /// cache). Falls back to the defaults where the hierarchy is silent.
  [[nodiscard]] static MatmulBlocking from_machine(const machine::Machine& m);
};

/// C = A * B with A/B packed into contiguous panels and a register-blocked
/// microkernel, row-panels claimed one at a time by the pool's lanes
/// (workers plus the calling thread). Numerically equivalent to the other
/// variants up to floating-point reassociation; each element's arithmetic
/// depends on kc but not on mc, nc or the pool size.
void matmul_parallel_packed(const Matrix& a, const Matrix& b, Matrix& c,
                            ThreadPool& pool,
                            const MatmulBlocking& blocking = {});

/// Useful FLOPs of an (m x k) * (k x n) multiplication: 2 m k n.
[[nodiscard]] double matmul_flops(std::size_t m, std::size_t k,
                                  std::size_t n);

/// Compulsory memory traffic in bytes (every operand touched once):
/// the *lower bound* students use for the optimistic intensity.
[[nodiscard]] double matmul_min_bytes(std::size_t m, std::size_t k,
                                      std::size_t n);

}  // namespace pe::kernels
