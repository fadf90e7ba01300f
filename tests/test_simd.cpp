// The pe::simd exactness contract (docs/simd.md): every backend computes
// lane-wise IEEE arithmetic bit-identical to the portable generic
// backend, reductions use one fixed tree, and the *only* sanctioned
// semantic difference is `mul_add` fusing — advertised through the
// kFusedMulAdd trait, never silent. These tests pin that contract with
// exact equality (no tolerances): when they pass on an AVX-512 build, an
// AVX2 build and a generic build, a kernel written against Vec<T, N> is
// portable by construction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfeng/common/rng.hpp"
#include "perfeng/simd/caps.hpp"
#include "perfeng/simd/vec.hpp"

namespace {

using pe::simd::Vec;
using pe::simd::VecD;
using pe::simd::VecF;

template <typename T>
std::vector<T> random_values(std::size_t n, std::uint64_t seed) {
  pe::Rng rng(seed);
  std::vector<T> v(n);
  for (T& x : v) x = static_cast<T>(rng.next_range_double(-8.0, 8.0));
  return v;
}

/// Random values spread over 24 binades, so that summing them in any
/// order but the specified one rounds differently for most seeds.
template <typename T>
std::vector<T> spread_values(std::size_t n, std::uint64_t seed) {
  std::vector<T> v = random_values<T>(n, seed);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::ldexp(v[i], static_cast<int>((i * 7 + seed) % 24) - 12);
  return v;
}

/// Scalar statement of the stride-halving tree every backend's hsum must
/// reproduce: add the upper half of the lanes onto the lower half, and
/// repeat on the lower half until one lane is left.
template <typename T>
T stride_halving_sum(std::vector<T> lanes) {
  for (std::size_t width = lanes.size(); width > 1; width /= 2)
    for (std::size_t i = 0; i < width / 2; ++i)
      lanes[i] = lanes[i] + lanes[i + width / 2];
  return lanes[0];
}

TEST(Simd, LaneCountsMatchPreferredWidths) {
  EXPECT_EQ(VecD::lanes, pe::simd::kDoubleLanes);
  EXPECT_EQ(VecF::lanes, pe::simd::kFloatLanes);
  // A hardware backend fills its register; the generic one mirrors AVX2.
  const unsigned width = pe::simd::compiled_width_bits();
  const unsigned bits = width > 0 ? width : 256;
  EXPECT_EQ(VecD::lanes * 64, bits);
  EXPECT_EQ(VecF::lanes * 32, bits);
}

TEST(Simd, StrideHalvingTreeIsTheDocumentedOrder) {
  // Pins the scalar tree the hsum checks below compare against to the
  // orders docs/simd.md states for N=4 and N=8.
  for (std::uint64_t seed = 41; seed < 57; ++seed) {
    const auto x = spread_values<double>(8, seed);
    EXPECT_EQ(
        stride_halving_sum(std::vector<double>(x.begin(), x.begin() + 4)),
        (x[0] + x[2]) + (x[1] + x[3]));
    EXPECT_EQ(stride_halving_sum(x), ((x[0] + x[4]) + (x[2] + x[6])) +
                                         ((x[1] + x[5]) + (x[3] + x[7])));
  }
}

// The contract checks, run on both register widths explicitly (VecD and
// VecF are among them on every backend): an AVX-512 build tests its ymm
// and its zmm specializations, an AVX2 build its ymm ones and the generic
// template at 512 bits, a generic build the template at both.
template <typename V>
class SimdWidths : public ::testing::Test {};
template <typename V>
using Lane = decltype(V::zero().get(0));
using Widths = ::testing::Types<Vec<double, 4>, Vec<float, 8>,
                                Vec<double, 8>, Vec<float, 16>>;
TYPED_TEST_SUITE(SimdWidths, Widths);

TYPED_TEST(SimdWidths, ZeroBroadcastAndGet) {
  using V = TypeParam;
  using T = Lane<V>;
  const V z = V::zero();
  for (std::size_t i = 0; i < V::lanes; ++i) EXPECT_EQ(z.get(i), T(0));
  const V b = V::broadcast(T(2.5));
  for (std::size_t i = 0; i < V::lanes; ++i) EXPECT_EQ(b.get(i), T(2.5));
}

TYPED_TEST(SimdWidths, LoadStoreRoundTripsUnaligned) {
  // Loads and stores carry no alignment requirement — exercise every
  // element offset within a 64-byte line to prove it.
  using V = TypeParam;
  using T = Lane<V>;
  constexpr std::size_t kOffsets = 64 / sizeof(T);
  const auto src = random_values<T>(V::lanes + kOffsets - 1, 11);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    const V v = V::load(src.data() + off);
    T out[V::lanes];
    v.store(out);
    for (std::size_t i = 0; i < V::lanes; ++i) {
      EXPECT_EQ(out[i], src[off + i]);
      EXPECT_EQ(v.get(i), src[off + i]);
    }
  }
}

TYPED_TEST(SimdWidths, GatherLoadsIndexedLanes) {
  // Out-of-order and repeated indices, spread over a table larger than
  // one vector.
  using V = TypeParam;
  using T = Lane<V>;
  const auto table = random_values<T>(3 * V::lanes, 12);
  std::uint32_t idx[V::lanes];
  for (std::size_t i = 0; i < V::lanes; ++i)
    idx[i] = static_cast<std::uint32_t>((i * 5 + 3) % (3 * V::lanes));
  idx[V::lanes - 1] = idx[0];
  const V v = V::gather(table.data(), idx);
  for (std::size_t i = 0; i < V::lanes; ++i) EXPECT_EQ(v.get(i), table[idx[i]]);
}

TYPED_TEST(SimdWidths, ArithmeticIsLaneWiseExact) {
  using V = TypeParam;
  using T = Lane<V>;
  const auto xs = random_values<T>(V::lanes, 21);
  const auto ys = random_values<T>(V::lanes, 22);
  const V x = V::load(xs.data());
  const V y = V::load(ys.data());
  const V sum = x + y, diff = x - y, prod = x * y;
  for (std::size_t i = 0; i < V::lanes; ++i) {
    EXPECT_EQ(sum.get(i), xs[i] + ys[i]);
    EXPECT_EQ(diff.get(i), xs[i] - ys[i]);
    EXPECT_EQ(prod.get(i), xs[i] * ys[i]);
  }
}

TYPED_TEST(SimdWidths, MulAddHonorsTheFusedTrait) {
  // The one sanctioned backend difference: with kFusedMulAdd the result
  // is std::fma (one rounding), without it mul-then-add (two roundings).
  // Either way the trait tells callers exactly which — verified here per
  // lane with exact equality.
  using V = TypeParam;
  using T = Lane<V>;
  const auto as = random_values<T>(V::lanes, 31);
  const auto bs = random_values<T>(V::lanes, 32);
  const auto cs = random_values<T>(V::lanes, 33);
  const V r =
      V::load(as.data()).mul_add(V::load(bs.data()), V::load(cs.data()));
  for (std::size_t i = 0; i < V::lanes; ++i) {
    const T expect = V::kFusedMulAdd ? std::fma(as[i], bs[i], cs[i])
                                     : as[i] * bs[i] + cs[i];
    EXPECT_EQ(r.get(i), expect);
  }
}

TYPED_TEST(SimdWidths, HsumUsesTheFixedStrideHalvingTree) {
  // The order the generic backend defines and every hardware backend must
  // reproduce, so that a reduction written on Vec is bit-stable across
  // backends.
  using V = TypeParam;
  using T = Lane<V>;
  for (std::uint64_t seed = 41; seed < 57; ++seed) {
    const auto xs = spread_values<T>(V::lanes, seed);
    EXPECT_EQ(V::load(xs.data()).hsum(), stride_halving_sum(xs)) << seed;
  }
}

TEST(Simd, GenericTemplateAgreesWithCompiledBackendAtOtherWidths) {
  // Widths with no hardware specialization always instantiate the
  // generic template — they must behave identically to VecD semantics so
  // kernels can pick any power-of-two width without surprises.
  using V2 = Vec<double, 2>;
  const auto xs = random_values<double>(2, 61);
  const auto ys = random_values<double>(2, 62);
  const V2 r = V2::load(xs.data()).mul_add(V2::load(ys.data()), V2::zero());
  for (std::size_t i = 0; i < 2; ++i) {
    const double expect = V2::kFusedMulAdd ? std::fma(xs[i], ys[i], 0.0)
                                           : xs[i] * ys[i];
    EXPECT_EQ(r.get(i), expect);
  }
  EXPECT_EQ(V2::load(xs.data()).hsum(), xs[0] + xs[1]);
}

TEST(Simd, CompiledBackendReportingIsConsistent) {
  const unsigned width = pe::simd::compiled_width_bits();
  const std::string name = pe::simd::compiled_backend_name();
  if (name == "avx512") {
    EXPECT_EQ(width, 512u);
    EXPECT_TRUE(pe::simd::fused_mul_add());
  } else if (name == "avx2") {
    EXPECT_EQ(width, 256u);
  } else {
    EXPECT_EQ(name, "generic");
    EXPECT_EQ(width, 0u);
    EXPECT_FALSE(pe::simd::fused_mul_add());
  }
  EXPECT_EQ(pe::simd::fused_mul_add(), VecD::kFusedMulAdd);
}

TEST(Simd, RuntimeCapsAreSelfConsistent) {
  const pe::simd::SimdCaps caps = pe::simd::runtime_simd_caps();
  // Feature implications on x86 (all vacuously true on other ISAs where
  // the probe reports everything false).
  if (caps.avx2) {
    EXPECT_TRUE(caps.avx);
  }
  if (caps.avx) {
    EXPECT_TRUE(caps.sse2);
  }
  if (caps.avx512f) {
    EXPECT_TRUE(caps.avx2);
  }
  const unsigned width = caps.width_bits();
  if (caps.avx512f) {
    EXPECT_EQ(width, 512u);
  } else if (caps.avx2 || caps.avx) {
    EXPECT_EQ(width, 256u);
  } else if (caps.sse2) {
    EXPECT_EQ(width, 128u);
  } else {
    EXPECT_EQ(width, 0u);
  }
  EXPECT_FALSE(caps.summary().empty());
  // A binary compiled for AVX2 (AVX-512F) can only be running on an AVX2
  // (AVX-512F) host.
  if (pe::simd::compiled_width_bits() >= 256) {
    EXPECT_TRUE(caps.avx2);
  }
  if (pe::simd::compiled_width_bits() >= 512) {
    EXPECT_TRUE(caps.avx512f);
  }
}

}  // namespace
