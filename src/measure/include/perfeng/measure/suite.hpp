#pragma once

/// \file suite.hpp
/// Benchmark-suite construction and scoring (the John/Eeckhout
/// benchmarking lectures).
///
/// A suite is a set of named benchmarks with per-benchmark reference
/// times; a machine's score on a benchmark is the speed ratio vs the
/// reference, and the suite score is the *geometric* mean of ratios —
/// the only mean for which "machine A scores higher than B" is
/// independent of the reference machine (the classic SPEC lesson, and a
/// reliable exam question).
///
/// `run` degrades gracefully: a member whose measurement throws (kernel
/// fault, deadline timeout, injected chaos) is captured in
/// `SuiteScore::failed` and the suite is scored over the survivors, so an
/// unattended campaign always comes back with every result it could get.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfeng/machine/machine.hpp"
#include "perfeng/measure/benchmark_runner.hpp"

namespace pe {

/// One suite member.
struct SuiteBenchmark {
  std::string name;
  std::function<void()> kernel;
  double reference_seconds = 1.0;  ///< time on the reference machine
};

/// One benchmark's outcome on the machine under test.
struct SuiteResult {
  std::string name;
  double seconds = 0.0;
  double ratio = 0.0;  ///< reference_seconds / seconds (higher is better)
};

/// A member whose measurement failed (see SuiteScore::failed).
struct SuiteFailure {
  std::string name;
  std::string error;  ///< what() of the exception that aborted the member
};

/// Scored run of a whole suite.
struct SuiteScore {
  std::vector<SuiteResult> results;  ///< survivors, in suite order
  std::vector<SuiteFailure> failed;  ///< members whose measurement threw
  /// Means over the *survivors* only; 0 when every member failed. A score
  /// with failures is a partial score — check complete() before comparing
  /// machines on it.
  double geometric_mean_ratio = 0.0;
  double arithmetic_mean_ratio = 0.0;  ///< reported for the comparison

  /// Provenance: the machine the suite was scored on (empty when the suite
  /// had no machine attached). A score that names its machine and
  /// calibration hash can be audited long after the run.
  std::string machine_name;
  std::string calibration_hash;

  /// True when every member produced a measurement.
  [[nodiscard]] bool complete() const { return failed.empty(); }

  /// Names of benchmarks slower than the reference (ratio < 1).
  [[nodiscard]] std::vector<std::string> regressions() const;
};

/// A named collection of benchmarks with reference times.
class BenchmarkSuite {
 public:
  explicit BenchmarkSuite(std::string name);

  /// Add a member; reference time must be positive, names unique.
  void add(SuiteBenchmark benchmark);

  /// Record the machine under test; every score produced afterwards
  /// carries its name and calibration hash as provenance.
  void set_machine(const machine::Machine& m);

  [[nodiscard]] const std::string& machine_name() const {
    return machine_name_;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }

  /// Run every member under the runner and score the machine. Per-member
  /// failures are captured into `SuiteScore::failed` (never propagated);
  /// the score covers the surviving members.
  [[nodiscard]] SuiteScore run(const BenchmarkRunner& runner) const;

  /// Score from externally-measured times (same order as added); used to
  /// compare scoring rules without re-running, and by tests. All times
  /// must be present and positive (no failure handling on this path).
  [[nodiscard]] SuiteScore score(
      const std::vector<double>& measured_seconds) const;

 private:
  /// Score (member index, seconds) pairs for the surviving subset. Indexed
  /// rather than named so a survivor resolves to its member in O(1) with
  /// no re-matching.
  [[nodiscard]] SuiteScore score_survivors(
      const std::vector<std::pair<std::size_t, double>>& survivors) const;

  std::string name_;
  std::string machine_name_;       ///< provenance: machine under test
  std::string calibration_hash_;   ///< provenance: Machine::calibration_hash
  std::vector<SuiteBenchmark> members_;
};

}  // namespace pe
