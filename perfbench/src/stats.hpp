#pragma once

/// \file stats.hpp
/// Order statistics the benchmark reports: the median and the "tail", the
/// highest percentile of a fixed ladder that has at least ten samples
/// beyond it, so a reported tail is never one or two unlucky samples.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace perfbench {

/// A tail value together with the percentile it is and the sample count
/// it came from (both are printed next to every tail metric).
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// Highest percentile of {99.99, 99.9, 99, 95, 90, 75} with at least ten
/// of `samples` beyond it; 50 (the median) when no rung qualifies.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// The tail of `xs` by the rule above (linear-interpolated percentile).
[[nodiscard]] Tail tail(std::span<const double> xs);

/// "step_tail_us = 1234.5 us (p99 of 9000 steps)": a tail of a sample in
/// seconds, scaled to `unit`, with its percentile and sample count. Tails
/// are printed, not end-to-end metrics: a CPU-steal episode on a shared
/// host moves them several-fold between runs.
[[nodiscard]] std::string tail_note(const char* name, const Tail& t,
                                    double scale, const char* unit,
                                    const char* what);

/// "name = a, b, c unit": every sample of a small set, for context lines.
[[nodiscard]] std::string samples_note(const char* name,
                                       std::span<const double> xs,
                                       const char* unit);

/// Median; 0 for an empty sample.
[[nodiscard]] double median_or_zero(std::span<const double> xs);

/// Linear-interpolated percentile q in [0, 100]; 0 for an empty sample,
/// infinite when it reaches an infinite sample.
[[nodiscard]] double percentile_or_zero(std::span<const double> xs, double q);

/// Representable doubles between x and y (0 when equal, +0 == -0);
/// UINT64_MAX when either is NaN.
[[nodiscard]] std::uint64_t ulp_distance(double x, double y);

}  // namespace perfbench
