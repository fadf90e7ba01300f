#pragma once

/// \file backend_avx2.hpp
/// AVX2(+FMA) backend: `Vec<double, 4>` and `Vec<float, 8>` over 256-bit
/// registers.
///
/// Only included by vec.hpp when the TU is compiled with `__AVX2__`
/// available (the build enables -mavx2 -mfma project-wide when the
/// compiler and host support it, keeping the backend choice consistent
/// across every TU — see PERFENG_SIMD_NATIVE in the top-level
/// CMakeLists.txt). AVX-512 builds define `__AVX2__` too and keep these
/// 256-bit specializations beside the 512-bit ones. The backend_*.hpp
/// headers are the *only* places raw intrinsics may appear; perfeng-lint's
/// `simd-isolation` rule holds everything else to the `Vec<T, N>` surface.
///
/// Semantics contract (tested in tests/test_simd.cpp): every lane-wise
/// operation produces bit-identical results to the generic backend, and
/// `hsum` reduces in the same fixed binary tree. The one sanctioned
/// difference is `mul_add`, which fuses into a single rounding when FMA is
/// compiled in — advertised through `kFusedMulAdd` so callers that need
/// scalar-exact results (the SpMV format zoo) use mul-then-add instead.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "perfeng/simd/backend_generic.hpp"

namespace pe::simd {

#if defined(__FMA__)
inline constexpr bool kAvx2HasFma = true;
#else
inline constexpr bool kAvx2HasFma = false;
#endif

template <>
struct Vec<double, 4> {
  static constexpr std::size_t lanes = 4;
  static constexpr bool kFusedMulAdd = kAvx2HasFma;

  __m256d reg;

  [[nodiscard]] static Vec zero() { return {_mm256_setzero_pd()}; }
  [[nodiscard]] static Vec broadcast(double s) {
    return {_mm256_set1_pd(s)};
  }
  [[nodiscard]] static Vec load(const double* p) {
    return {_mm256_loadu_pd(p)};
  }
  /// Assembled in registers from scalar loads, not a hardware gather.
  [[nodiscard]] static Vec gather(const double* base,
                                  const std::uint32_t* idx) {
    return {_mm256_set_pd(base[idx[3]], base[idx[2]], base[idx[1]],
                          base[idx[0]])};
  }
  void store(double* p) const { _mm256_storeu_pd(p, reg); }

  [[nodiscard]] double get(std::size_t i) const {
    double tmp[4];
    _mm256_storeu_pd(tmp, reg);
    return tmp[i];
  }

  [[nodiscard]] Vec operator+(const Vec& o) const {
    return {_mm256_add_pd(reg, o.reg)};
  }
  [[nodiscard]] Vec operator-(const Vec& o) const {
    return {_mm256_sub_pd(reg, o.reg)};
  }
  [[nodiscard]] Vec operator*(const Vec& o) const {
    return {_mm256_mul_pd(reg, o.reg)};
  }

  /// this*b + c; fused (one rounding) when FMA is compiled in.
  [[nodiscard]] Vec mul_add(const Vec& b, const Vec& c) const {
#if defined(__FMA__)
    return {_mm256_fmadd_pd(reg, b.reg, c.reg)};
#else
    return {_mm256_add_pd(_mm256_mul_pd(reg, b.reg), c.reg)};
#endif
  }

  /// Same fixed stride-halving tree as the generic backend:
  /// (l0+l2) + (l1+l3) — backends must agree bit-for-bit.
  [[nodiscard]] double hsum() const {
    const __m128d lo = _mm256_castpd256_pd128(reg);
    const __m128d hi = _mm256_extractf128_pd(reg, 1);
    const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
    const __m128d swap = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
  }
};

template <>
struct Vec<float, 8> {
  static constexpr std::size_t lanes = 8;
  static constexpr bool kFusedMulAdd = kAvx2HasFma;

  __m256 reg;

  [[nodiscard]] static Vec zero() { return {_mm256_setzero_ps()}; }
  [[nodiscard]] static Vec broadcast(float s) {
    return {_mm256_set1_ps(s)};
  }
  [[nodiscard]] static Vec load(const float* p) {
    return {_mm256_loadu_ps(p)};
  }
  [[nodiscard]] static Vec gather(const float* base,
                                  const std::uint32_t* idx) {
    return {_mm256_set_ps(base[idx[7]], base[idx[6]], base[idx[5]],
                          base[idx[4]], base[idx[3]], base[idx[2]],
                          base[idx[1]], base[idx[0]])};
  }
  void store(float* p) const { _mm256_storeu_ps(p, reg); }

  [[nodiscard]] float get(std::size_t i) const {
    float tmp[8];
    _mm256_storeu_ps(tmp, reg);
    return tmp[i];
  }

  [[nodiscard]] Vec operator+(const Vec& o) const {
    return {_mm256_add_ps(reg, o.reg)};
  }
  [[nodiscard]] Vec operator-(const Vec& o) const {
    return {_mm256_sub_ps(reg, o.reg)};
  }
  [[nodiscard]] Vec operator*(const Vec& o) const {
    return {_mm256_mul_ps(reg, o.reg)};
  }

  [[nodiscard]] Vec mul_add(const Vec& b, const Vec& c) const {
#if defined(__FMA__)
    return {_mm256_fmadd_ps(reg, b.reg, c.reg)};
#else
    return {_mm256_add_ps(_mm256_mul_ps(reg, b.reg), c.reg)};
#endif
  }

  [[nodiscard]] float hsum() const {
    float tmp[8];
    _mm256_storeu_ps(tmp, reg);
    // Same fixed binary tree as the generic backend.
    for (std::size_t width = 8; width > 1; width /= 2)
      for (std::size_t i = 0; i < width / 2; ++i)
        tmp[i] = tmp[i] + tmp[i + width / 2];
    return tmp[0];
  }
};

}  // namespace pe::simd
