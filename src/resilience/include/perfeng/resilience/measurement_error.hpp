#pragma once

/// \file measurement_error.hpp
/// Structured errors for failed measurements.
///
/// When the harness gives up on a measurement — the kernel ran past its
/// wall-clock deadline, an injected or real fault fired, or the sample never
/// stabilized within the retry budget — it throws a `MeasurementError` that
/// records *why* (kind), *what* (label), and *how hard it tried* (attempts,
/// elapsed seconds). Campaign drivers (`BenchmarkSuite`, `Experiment`) catch
/// these and degrade gracefully instead of aborting the sweep.

#include <string>
#include <string_view>

#include "perfeng/common/error.hpp"

namespace pe::resilience {

/// Why a measurement was abandoned.
enum class FailureKind {
  kTimeout,   ///< the attempt spent its wall-clock deadline
  kFault,     ///< the kernel / backend threw
  kUnstable,  ///< sample CV stayed above threshold after all attempts
};

/// Human-readable name of a FailureKind ("timeout", "fault", "unstable").
[[nodiscard]] std::string_view to_string(FailureKind kind);

/// Structured measurement failure; `what()` embeds all fields.
class MeasurementError : public Error {
 public:
  MeasurementError(FailureKind kind, std::string label, int attempts,
                   double elapsed_seconds, const std::string& detail);

  [[nodiscard]] FailureKind kind() const noexcept { return kind_; }
  /// Label of the measurement that failed (benchmark / kernel name).
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  /// Attempts consumed before giving up (>= 1).
  [[nodiscard]] int attempts() const noexcept { return attempts_; }
  /// Wall-clock seconds spent before giving up.
  [[nodiscard]] double elapsed_seconds() const noexcept { return elapsed_; }
  /// The bare failure description, without the formatted prefix — used
  /// when re-tagging an error with updated attempt counts.
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  FailureKind kind_;
  std::string label_;
  int attempts_;
  double elapsed_;
  std::string detail_;
};

}  // namespace pe::resilience
