#pragma once

/// \file rng.hpp
/// Deterministic random number generation for reproducible experiments.
///
/// Every workload generator in the toolbox takes an explicit seed so that
/// experiments are bit-reproducible across runs — one of the course's core
/// experimental-design lessons. `Rng` wraps a SplitMix64-seeded xoshiro256**
/// generator with convenience distributions; it is cheaper and more
/// predictable across standard libraries than `std::mt19937_64` +
/// `std::uniform_*_distribution` (whose outputs are implementation-defined).

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace pe {

/// 64-bit FNV-1a of `bytes`. Unlike std::hash, whose values are
/// implementation-defined, it is the same on every platform, so it keys
/// calibration hashes and the per-name streams seeded from one `Rng` seed.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// Deterministic, seedable PRNG (xoshiro256**) with portable distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [lo, hi).
  double next_range_double(double lo, double hi);

  /// Standard normal variate (Box–Muller; caches the spare value).
  double next_normal();

  /// Exponential variate with rate lambda (> 0).
  double next_exponential(double lambda);

  /// Zipf-distributed integer in [0, n) with skew s >= 0 (s == 0 is uniform).
  /// Uses rejection-inversion; suitable for the skewed histogram inputs used
  /// in Assignment 2's data-dependent modeling exercise.
  std::uint64_t next_zipf(std::uint64_t n, double s);

  /// Fisher–Yates shuffle of a vector, in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_range(0, i - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4] = {};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace pe
