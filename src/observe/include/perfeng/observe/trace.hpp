#pragma once

/// \file trace.hpp
/// A captured scheduler trace: the drained, time-sorted event stream.
///
/// `Trace` is the interchange type between the tracer (which fills it), the
/// analysis passes (latency histograms, contention profiles), and the
/// exporters (collapsed stacks, Chrome trace_event JSON). Traces serialize
/// to a line-oriented JSON format (one event object per line after a header
/// line) so `tools/trace_export` can post-process captures offline; see
/// docs/observability.md for the format.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "perfeng/observe/ring_buffer.hpp"

namespace pe::observe {

/// A drained trace: events sorted by timestamp, plus overflow accounting.
struct Trace {
  std::vector<TraceRecord> events;  ///< time-sorted
  std::uint64_t recorded = 0;       ///< events emitted while tracing
  std::uint64_t dropped = 0;        ///< events lost to ring overwrites
  std::size_t lanes = 0;            ///< lanes the tracer was sized for

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// Count of events of one kind.
  [[nodiscard]] std::size_t count(TraceEventKind kind) const noexcept;

  /// Write the line-oriented JSON capture format.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;

  /// Parse a capture written by `save`. Interned strings (provenance
  /// files) are stored in the returned trace's string pool, so records
  /// stay valid for the trace's lifetime. Throws pe::Error
  /// "<source>: line N: what" on malformed input; `load_file` names the
  /// file as the source.
  [[nodiscard]] static Trace load(std::istream& in,
                                  std::string_view source = "trace capture");
  [[nodiscard]] static Trace load_file(const std::string& path);

  /// Owning storage for provenance strings of loaded traces; untouched
  /// for live captures (whose `file` pointers are static storage).
  std::vector<std::string> string_pool;
};

}  // namespace pe::observe
