#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads (see README.md for why each exists).

#include <cstdint>
#include <string>

#include "host.hpp"
#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;    ///< length of the measured phase
  bool traced = false;      ///< per-layer run instead of end-to-end
  std::string spans_path;   ///< where the traced run writes its spans
  Host host;
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Thousands of short parallel regions: stencil, power-law SpMV, matmul 128.
void run_short_regions(const RunOptions& options, Report& report);

/// Long regions: matmul 1536 and a DRAM-resident STREAM triad.
void run_long_regions(const RunOptions& options, Report& report);

/// Open-loop multi-tenant load on pe::service::BenchmarkService.
void run_service_mixed(const RunOptions& options, Report& report);

/// Take a last thread sample and report the budget: the threads.max metric
/// (traced) or a context line, and a problem when it was exceeded.
void report_thread_budget(ThreadBudget& budget, Report& report, bool traced);

/// First line of a span file: run identity and host provenance.
[[nodiscard]] std::string span_header(const RunOptions& options,
                                      const std::string& machine_hash);

}  // namespace perfbench
