#pragma once

/// \file report.hpp
/// The metric catalogue (mirrors BENCHMARK.json) and the result record a
/// run prints: human-readable lines, then one JSON object as the last
/// line of standard output.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every workload with tracing off.
[[nodiscard]] std::span<const MetricSpec> end_to_end_metrics();

/// Per-layer metrics, printed by every workload with tracing on; a layer a
/// workload does not exercise reads 0.
[[nodiscard]] std::span<const MetricSpec> per_layer_metrics();

class Report {
 public:
  /// Record a metric of the catalogue (unit comes from the catalogue).
  void set(const std::string& name, double value);

  /// A human-readable context line (provenance, sizes, extra counts).
  void note(const std::string& line);

  /// Count operations and wrong results; `failed` feeds fail_frac.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what, std::uint64_t n = 1);

  /// A condition that makes the run incorrect without being an operation
  /// (thread budget exceeded, non-finite metric).
  void problem(const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double fail_frac() const;

  /// Print notes and metrics, then the JSON result line. `traced` selects
  /// the per-layer catalogue instead of the end-to-end one.
  void print(bool traced);

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
