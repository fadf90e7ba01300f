#pragma once

/// \file backend_generic.hpp
/// Portable lane backend for `pe::simd::Vec<T, N>`.
///
/// The primary template: an array of N lanes and plain scalar loops. It
/// compiles on every target and is the reference semantics for every
/// specialized backend — each operation is defined lane-wise in IEEE
/// arithmetic, `mul_add` is an *unfused* multiply-then-add (the repo builds
/// with -ffp-contract=off, so the compiler cannot silently fuse it), and
/// `hsum` reduces in a fixed binary tree. A hardware backend may only
/// deviate where the trait constants say so (`kFusedMulAdd`), which is what
/// lets the tests demand exact equality instead of tolerances.

#include <cstddef>
#include <cstdint>

namespace pe::simd {

/// Fixed-width vector of N lanes of T. Specializations (see
/// backend_avx2.hpp and backend_avx512.hpp) overlay hardware registers;
/// this primary template is the portable fallback with identical
/// semantics.
template <typename T, std::size_t N>
struct Vec {
  static_assert(N >= 1 && (N & (N - 1)) == 0, "lane count must be a power "
                                              "of two");
  static constexpr std::size_t lanes = N;
  /// True when mul_add(a, b, c) rounds once (hardware FMA); the generic
  /// backend multiplies then adds, rounding twice.
  static constexpr bool kFusedMulAdd = false;

  T lane[N];

  /// All lanes zero.
  [[nodiscard]] static Vec zero() {
    Vec v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = T(0);
    return v;
  }

  /// All lanes = s.
  [[nodiscard]] static Vec broadcast(T s) {
    Vec v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = s;
    return v;
  }

  /// Load N contiguous elements (no alignment requirement).
  [[nodiscard]] static Vec load(const T* p) {
    Vec v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = p[i];
    return v;
  }

  /// Indexed load: lane i = base[idx[i]]. Kernels call this rather than
  /// filling a stack array and calling load(): the hardware backends build
  /// the vector in registers, where the array round trip can stall on
  /// store forwarding (GCC 12 under -mprefer-vector-width=256 stores an
  /// 8-double array as two 256-bit halves, then reloads it as one zmm).
  [[nodiscard]] static Vec gather(const T* base, const std::uint32_t* idx) {
    Vec v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = base[idx[i]];
    return v;
  }

  /// Store N contiguous elements (no alignment requirement).
  void store(T* p) const {
    for (std::size_t i = 0; i < N; ++i) p[i] = lane[i];
  }

  [[nodiscard]] T get(std::size_t i) const { return lane[i]; }

  [[nodiscard]] Vec operator+(const Vec& o) const {
    Vec v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = lane[i] + o.lane[i];
    return v;
  }

  [[nodiscard]] Vec operator-(const Vec& o) const {
    Vec v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = lane[i] - o.lane[i];
    return v;
  }

  [[nodiscard]] Vec operator*(const Vec& o) const {
    Vec v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = lane[i] * o.lane[i];
    return v;
  }

  /// this*b + c, lane-wise. Unfused here (two roundings); the FMA
  /// backends fuse (one rounding) and say so via kFusedMulAdd.
  [[nodiscard]] Vec mul_add(const Vec& b, const Vec& c) const {
    Vec v;
    for (std::size_t i = 0; i < N; ++i)
      v.lane[i] = lane[i] * b.lane[i] + c.lane[i];
    return v;
  }

  /// Horizontal sum in a fixed stride-halving tree — for N=4 that is
  /// (l0+l2) + (l1+l3) — the order every backend must reproduce so
  /// reductions are bit-stable across backends.
  [[nodiscard]] T hsum() const {
    T partial[N];
    for (std::size_t i = 0; i < N; ++i) partial[i] = lane[i];
    for (std::size_t width = N; width > 1; width /= 2)
      for (std::size_t i = 0; i < width / 2; ++i)
        partial[i] = partial[i] + partial[i + width / 2];
    return partial[0];
  }
};

}  // namespace pe::simd
