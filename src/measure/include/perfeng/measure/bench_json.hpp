#pragma once

/// \file bench_json.hpp
/// Uniform JSON schema for benchmark snapshots.
///
/// Every benchmark driver used to invent its own ad-hoc JSON shape, which
/// made the checked-in snapshots under bench/snapshots/ impossible to diff
/// or feed into a regression corpus uniformly. `BenchReport` fixes one
/// schema ("pe-bench-v1"): the bench name, the machine it ran on (name +
/// calibration hash, the same provenance pair `Experiment` carries), a set
/// of scalar context values (pool size, batch size, ...), and one entry per
/// metric carrying the *full distribution* — summary statistics plus the
/// raw per-repetition samples — rather than a single mean that hides the
/// spread the statistics lectures warn about.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "perfeng/machine/machine.hpp"
#include "perfeng/measure/statistics.hpp"

namespace pe {

/// One named metric of a benchmark: unit, raw samples, and their summary.
struct BenchMetric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  SampleSummary summary;  ///< computed from `samples` at add time
};

/// Accumulates one benchmark's results and renders the pe-bench-v1 JSON.
class BenchReport {
 public:
  explicit BenchReport(std::string bench);

  /// Record the machine the benchmark ran against; name and calibration
  /// hash become top-level provenance fields.
  void set_machine(const machine::Machine& m);
  void set_machine(std::string name, std::string calibration_hash);

  /// Record a scalar context value (pool_threads, tasks_per_batch, ...).
  /// Re-setting a key overwrites; order is first-set order.
  void set_context(const std::string& key, double value);

  /// Add a metric with its full per-repetition sample distribution. The
  /// summary is computed here. Requires at least one sample.
  void add_metric(const std::string& name, const std::string& unit,
                  std::vector<double> samples);

  /// Add a derived scalar metric (e.g. a ratio of two medians): a
  /// one-sample distribution whose summary collapses onto the value.
  void add_scalar(const std::string& name, const std::string& unit,
                  double value);

  [[nodiscard]] const std::string& bench() const { return bench_; }
  [[nodiscard]] const std::vector<BenchMetric>& metrics() const {
    return metrics_;
  }

  /// Render the report as pe-bench-v1 JSON (stable key order). Every
  /// number is written by `json_double`, so it reads back as the same
  /// double, and a non-finite value is written as `null`.
  [[nodiscard]] std::string to_json() const;

  /// Write `to_json()` to `path`; throws pe::Error on I/O failure.
  void save_file(const std::string& path) const;

 private:
  std::string bench_;
  std::string machine_name_;
  std::string calibration_hash_;
  std::vector<std::pair<std::string, double>> context_;
  std::vector<BenchMetric> metrics_;
};

}  // namespace pe
