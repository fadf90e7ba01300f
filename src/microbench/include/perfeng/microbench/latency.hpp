#pragma once

/// \file latency.hpp
/// Pointer-chase memory latency microbenchmark.
///
/// A randomly permuted cyclic pointer chain defeats hardware prefetching, so
/// each load's address depends on the previous load's value and the measured
/// time per hop is the average memory access latency for the working set.
/// Sweeping the working-set size exposes the cache hierarchy as latency
/// plateaus; `detect_cache_levels` finds the knees — the course's classic
/// "discover your machine" exercise.
///
/// The reported latency is the steady state in which every line of the
/// working set is revisited once per traversal of the cycle, as lmbench's
/// `lat_mem_rd` defines it. Each point therefore walks its whole cycle
/// once, untimed, and then times calls of 4096 hops, each resuming where
/// the last one stopped, so every timed hop lands on a line last touched
/// one traversal earlier. Timed straight after the chain is built, the
/// chase reads a different number: on a 4-vCPU Xeon (L2 2 MiB, L3
/// 300 MiB) the 16 and 32 MiB sets read 49 and 67 ns cold against 141 and
/// 154 ns steady (medians of 3 and 10 runs).
///
/// Cost: building each chain and its one untimed traversal dominate. On
/// the same host the default sweep (4 KiB to 32 MiB) takes 1.3-1.9 s,
/// most of it in the 16 and 32 MiB points.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "perfeng/measure/benchmark_runner.hpp"

namespace pe::microbench {

/// Latency at one working-set size.
struct LatencyPoint {
  std::size_t bytes = 0;          ///< working-set size
  double seconds_per_load = 0.0;  ///< average dependent-load latency
};

/// Measure average dependent-load latency for a working set of `bytes`
/// (rounded down to a whole number of pointers; minimum 64 pointers).
[[nodiscard]] LatencyPoint run_latency(std::size_t bytes,
                                       const BenchmarkRunner& runner,
                                       std::uint64_t seed = 42);

/// Sweep working sets from `min_bytes` to `max_bytes` (doubling). Every
/// point builds its chain in one buffer sized for `max_bytes`, so the
/// sweep holds 2 x `max_bytes` (the chain and its visiting order) from
/// start to end.
[[nodiscard]] std::vector<LatencyPoint> latency_sweep(
    std::size_t min_bytes, std::size_t max_bytes,
    const BenchmarkRunner& runner, std::uint64_t seed = 42);

/// Estimate cache-level boundaries from a latency sweep: returns the
/// working-set sizes (bytes) just before each latency jump of more than
/// `jump_ratio` (e.g. 1.4 = 40% step).
[[nodiscard]] std::vector<std::size_t> detect_cache_levels(
    const std::vector<LatencyPoint>& sweep, double jump_ratio = 1.4);

}  // namespace pe::microbench
