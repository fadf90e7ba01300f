#pragma once

/// \file backend_avx512.hpp
/// AVX-512F backend: `Vec<double, 8>` and `Vec<float, 16>` over 512-bit
/// registers.
///
/// Only included by vec.hpp when the TU is compiled with `__AVX512F__`
/// (the build adds -mavx512f -mavx2 -mfma project-wide when the build
/// host runs an AVX-512 FMA kernel — see PERFENG_SIMD_NATIVE in the
/// top-level CMakeLists.txt). `__AVX2__` is then defined too, so vec.hpp
/// keeps the 256-bit specializations of backend_avx2.hpp in the program:
/// `Vec<double, 4>` and `Vec<float, 8>` keep their ymm code.
///
/// Uses AVX-512F instructions only (the one AVX-512 feature
/// `runtime_simd_caps()` reports). The semantics contract is the AVX2
/// backend's: lane-wise operations are bit-identical to the generic
/// template, `hsum` reduces in the same stride-halving tree, and
/// `mul_add` always fuses (`kFusedMulAdd`), since FMA is part of
/// AVX-512F.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "perfeng/simd/backend_generic.hpp"

namespace pe::simd {

template <>
struct Vec<double, 8> {
  static constexpr std::size_t lanes = 8;
  static constexpr bool kFusedMulAdd = true;

  __m512d reg;

  [[nodiscard]] static Vec zero() { return {_mm512_setzero_pd()}; }
  [[nodiscard]] static Vec broadcast(double s) {
    return {_mm512_set1_pd(s)};
  }
  [[nodiscard]] static Vec load(const double* p) {
    return {_mm512_loadu_pd(p)};
  }
  /// Assembled in registers from scalar loads, not a hardware gather.
  [[nodiscard]] static Vec gather(const double* base,
                                  const std::uint32_t* idx) {
    return {_mm512_set_pd(base[idx[7]], base[idx[6]], base[idx[5]],
                          base[idx[4]], base[idx[3]], base[idx[2]],
                          base[idx[1]], base[idx[0]])};
  }
  void store(double* p) const { _mm512_storeu_pd(p, reg); }

  [[nodiscard]] double get(std::size_t i) const {
    double tmp[8];
    _mm512_storeu_pd(tmp, reg);
    return tmp[i];
  }

  [[nodiscard]] Vec operator+(const Vec& o) const {
    return {_mm512_add_pd(reg, o.reg)};
  }
  [[nodiscard]] Vec operator-(const Vec& o) const {
    return {_mm512_sub_pd(reg, o.reg)};
  }
  [[nodiscard]] Vec operator*(const Vec& o) const {
    return {_mm512_mul_pd(reg, o.reg)};
  }

  /// this*b + c with one rounding.
  [[nodiscard]] Vec mul_add(const Vec& b, const Vec& c) const {
    return {_mm512_fmadd_pd(reg, b.reg, c.reg)};
  }

  /// Same fixed stride-halving tree as the generic backend:
  /// ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)).
  [[nodiscard]] double hsum() const {
    double tmp[8];
    _mm512_storeu_pd(tmp, reg);
    for (std::size_t width = 8; width > 1; width /= 2)
      for (std::size_t i = 0; i < width / 2; ++i)
        tmp[i] = tmp[i] + tmp[i + width / 2];
    return tmp[0];
  }
};

template <>
struct Vec<float, 16> {
  static constexpr std::size_t lanes = 16;
  static constexpr bool kFusedMulAdd = true;

  __m512 reg;

  [[nodiscard]] static Vec zero() { return {_mm512_setzero_ps()}; }
  [[nodiscard]] static Vec broadcast(float s) {
    return {_mm512_set1_ps(s)};
  }
  [[nodiscard]] static Vec load(const float* p) {
    return {_mm512_loadu_ps(p)};
  }
  [[nodiscard]] static Vec gather(const float* base,
                                  const std::uint32_t* idx) {
    return {_mm512_set_ps(base[idx[15]], base[idx[14]], base[idx[13]],
                          base[idx[12]], base[idx[11]], base[idx[10]],
                          base[idx[9]], base[idx[8]], base[idx[7]],
                          base[idx[6]], base[idx[5]], base[idx[4]],
                          base[idx[3]], base[idx[2]], base[idx[1]],
                          base[idx[0]])};
  }
  void store(float* p) const { _mm512_storeu_ps(p, reg); }

  [[nodiscard]] float get(std::size_t i) const {
    float tmp[16];
    _mm512_storeu_ps(tmp, reg);
    return tmp[i];
  }

  [[nodiscard]] Vec operator+(const Vec& o) const {
    return {_mm512_add_ps(reg, o.reg)};
  }
  [[nodiscard]] Vec operator-(const Vec& o) const {
    return {_mm512_sub_ps(reg, o.reg)};
  }
  [[nodiscard]] Vec operator*(const Vec& o) const {
    return {_mm512_mul_ps(reg, o.reg)};
  }

  [[nodiscard]] Vec mul_add(const Vec& b, const Vec& c) const {
    return {_mm512_fmadd_ps(reg, b.reg, c.reg)};
  }

  [[nodiscard]] float hsum() const {
    float tmp[16];
    _mm512_storeu_ps(tmp, reg);
    // Same fixed binary tree as the generic backend.
    for (std::size_t width = 16; width > 1; width /= 2)
      for (std::size_t i = 0; i < width / 2; ++i)
        tmp[i] = tmp[i] + tmp[i + width / 2];
    return tmp[0];
  }
};

}  // namespace pe::simd
