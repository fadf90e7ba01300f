#include "stats.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "perfeng/measure/statistics.hpp"

namespace perfbench {

double tail_percentile(std::size_t samples) {
  // Percentiles in basis points, so "at least ten beyond" is exact integer
  // arithmetic: samples * (10000 - p) / 10000 >= 10.
  constexpr std::size_t kLadderBp[] = {9999, 9990, 9900, 9500, 9000, 7500};
  for (const std::size_t bp : kLadderBp) {
    if (samples * (10000 - bp) >= 100000)
      return static_cast<double>(bp) / 100.0;
  }
  return 50.0;
}

Tail tail(std::span<const double> xs) {
  Tail t;
  t.samples = xs.size();
  t.percentile = tail_percentile(xs.size());
  t.value = percentile_or_zero(xs, t.percentile);
  return t;
}

std::string tail_note(const char* name, const Tail& t, double scale,
                      const char* unit, const char* what) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s = %.6g %s (p%g of %zu %s)", name,
                t.value * scale, unit, t.percentile, t.samples, what);
  return line;
}

std::string samples_note(const char* name, std::span<const double> xs,
                         const char* unit) {
  std::string line = std::string(name) + " =";
  char buf[32];
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s %.4g", i ? "," : "", xs[i]);
    line += buf;
  }
  return line + " " + unit;
}

double median_or_zero(std::span<const double> xs) {
  return xs.empty() ? 0.0 : pe::median(xs);
}

double percentile_or_zero(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  const double p = pe::percentile(xs, q);
  // Interpolating towards an infinite sample (a missed operation) gives
  // inf - inf; the percentile is then infinite.
  return std::isnan(p) ? std::numeric_limits<double>::infinity() : p;
}

std::uint64_t ulp_distance(double x, double y) {
  if (std::isnan(x) || std::isnan(y))
    return std::numeric_limits<std::uint64_t>::max();
  // Map the sign-magnitude bit patterns onto one monotone integer line.
  const auto key = [](double d) {
    const auto bits = std::bit_cast<std::int64_t>(d);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t a = key(x), b = key(y);
  return a > b ? static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b)
               : static_cast<std::uint64_t>(b) - static_cast<std::uint64_t>(a);
}

}  // namespace perfbench
