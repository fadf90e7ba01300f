#pragma once

/// \file spans.hpp
/// In-memory spans recorded by the benchmark around its calls into each
/// toolbox layer, written out once when the run ends.
///
/// A span has a name, a start, an end, the parent span it nests in, and
/// the id of the step or submission it belongs to (every span of one step
/// or one submission shares that id). A span's self time is its duration
/// minus the part of its interval that its children cover.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds: the clock pe::observe's tracer stamps events
/// with, so scheduler events and benchmark spans share one time axis.
[[nodiscard]] std::uint64_t now_ns();

struct Span {
  const char* name = "";  ///< static storage; [A-Za-z0-9_.-] only
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;      ///< step or submission the span belongs to
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
};

/// Nanoseconds of [start, end) covered by the union of `intervals`, each
/// clipped to [start, end); overlapping intervals count once.
[[nodiscard]] std::uint64_t covered_ns(
    std::uint64_t start, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals);

/// Append-only span store. Not thread-safe: spans are added from the
/// benchmark's driving thread only.
class SpanLog {
 public:
  /// Append a span and return its index, for use as a child's `parent`.
  std::size_t add(const char* name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::uint64_t id,
                  std::int64_t parent = -1);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, in index order.
  [[nodiscard]] std::vector<std::uint64_t> self_times() const;

  /// Write a JSON-lines file: `header_json` (one JSON object) on the
  /// first line, then one object per span with its self time.
  void write(const std::string& path, const std::string& header_json) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
