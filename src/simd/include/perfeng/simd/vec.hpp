#pragma once

/// \file vec.hpp
/// The explicit vector layer: fixed-width `Vec<T, N>` with compile-time
/// backend dispatch.
///
/// The paper's lesson is that performance engineering exploits *all*
/// levels of the hardware; this is the level between the scalar core and
/// the memory hierarchy. Kernels write their inner loops against
/// `Vec<T, N>` (typically `VecD` = the widest native double vector) and
/// get the AVX-512F backend when the build compiled it in (`__AVX512F__`),
/// the AVX2+FMA backend when it compiled that in (`__AVX2__`; see
/// PERFENG_SIMD_NATIVE in the top-level CMakeLists.txt), or the portable
/// generic backend everywhere else — same semantics, tested bit-identical
/// lane-wise, so a kernel is written once and is correct on all of them.
/// Raw intrinsics are confined to the backend headers by perfeng-lint's
/// `simd-isolation` rule; everything else goes through this surface. The
/// runtime side (what the *host* supports, as opposed to what the binary
/// was compiled for) lives in caps.hpp and is recorded into
/// `pe::machine::Machine` calibrations.

#include <cstddef>

#include "perfeng/simd/backend_generic.hpp"

#if defined(__AVX2__)
#include "perfeng/simd/backend_avx2.hpp"
#endif
#if defined(__AVX512F__)
#include "perfeng/simd/backend_avx512.hpp"
#endif

namespace pe::simd {

/// Lane counts of the preferred native vectors: 512-bit registers with
/// the AVX-512 backend, 256-bit with AVX2. The generic backend mirrors
/// the AVX2 widths, so a generic build runs the same blocking as an AVX2
/// one (e.g. the lanes x 2*lanes matmul register tile is 4x8 on both) and
/// only codegen differs.
#if defined(__AVX512F__)
inline constexpr std::size_t kDoubleLanes = 8;
inline constexpr std::size_t kFloatLanes = 16;
#else
inline constexpr std::size_t kDoubleLanes = 4;
inline constexpr std::size_t kFloatLanes = 8;
#endif

/// The preferred double/float vectors kernels should use.
using VecD = Vec<double, kDoubleLanes>;
using VecF = Vec<float, kFloatLanes>;

/// Name of the backend this TU was compiled against.
[[nodiscard]] constexpr const char* compiled_backend_name() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "generic";
#endif
}

/// Vector register width the binary was compiled for, in bits (512 for
/// the AVX-512 backend, 256 for AVX2, 0 for the generic fallback — "no
/// hardware vectors assumed").
[[nodiscard]] constexpr unsigned compiled_width_bits() {
#if defined(__AVX512F__)
  return 512;
#elif defined(__AVX2__)
  return 256;
#else
  return 0;
#endif
}

/// True when `VecD::mul_add` rounds once (hardware FMA compiled in).
/// Callers that must match a scalar mul-then-add reference bit-for-bit
/// (the SpMV format zoo) avoid mul_add when they cannot afford the
/// different rounding; callers chasing the FLOP roof (matmul, triad)
/// embrace it and their tests build fma-aware references.
[[nodiscard]] constexpr bool fused_mul_add() { return VecD::kFusedMulAdd; }

}  // namespace pe::simd
