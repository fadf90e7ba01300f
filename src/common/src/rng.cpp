#include "perfeng/common/rng.hpp"

#include <cmath>

#include "perfeng/common/error.hpp"

namespace pe {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  has_spare_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 top bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_range(std::uint64_t lo, std::uint64_t hi) {
  PE_REQUIRE(lo <= hi, "empty range");
  const std::uint64_t span = hi - lo;
  if (span == UINT64_MAX) return next_u64();
  // Unbiased bounded generation via rejection (Lemire-style threshold).
  const std::uint64_t bound = span + 1;
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return lo + r % bound;
  }
}

double Rng::next_range_double(double lo, double hi) {
  PE_REQUIRE(lo <= hi, "empty range");
  return lo + (hi - lo) * next_double();
}

double Rng::next_normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::next_exponential(double lambda) {
  PE_REQUIRE(lambda > 0.0, "rate must be positive");
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::uint64_t Rng::next_zipf(std::uint64_t n, double s) {
  PE_REQUIRE(n > 0, "domain must be non-empty");
  PE_REQUIRE(s >= 0.0, "skew must be non-negative");
  if (n == 1) return 0;
  if (s == 0.0) return next_range(0, n - 1);

  // Rejection-inversion (W. Hormann, G. Derflinger): sample from the
  // continuous envelope H and accept against the discrete Zipf pmf.
  const double nd = static_cast<double>(n);
  auto h_integral = [s](double x) {
    const double logx = std::log(x);
    if (std::abs(1.0 - s) < 1e-12) return logx;
    return std::expm1((1.0 - s) * logx) / (1.0 - s);
  };
  auto h = [s](double x) { return std::exp(-s * std::log(x)); };
  const double h_x1 = h_integral(1.5) - 1.0;
  const double h_n = h_integral(nd + 0.5);
  for (;;) {
    const double u = h_x1 + next_double() * (h_n - h_x1);
    // invert h_integral
    double x = 0.0;
    if (std::abs(1.0 - s) < 1e-12) {
      x = std::exp(u);
    } else {
      x = std::exp(std::log1p(u * (1.0 - s)) / (1.0 - s));
    }
    const double k = std::floor(x + 0.5);
    if (k < 1.0 || k > nd) continue;
    if (u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint64_t>(k) - 1;  // 0-based rank
    }
  }
}

}  // namespace pe
