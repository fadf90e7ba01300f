#pragma once

/// \file export.hpp
/// Trace exporters: collapsed flame-graph stacks and Chrome trace_event.
///
/// `write_collapsed` emits the folded-stack format every standard
/// flame-graph tool consumes (`flamegraph.pl`, speedscope, inferno):
/// semicolon-joined frames, a space, and a weight — here microseconds of
/// executed chunk (or parked) time. `write_chrome_trace` emits the Chrome
/// `trace_event` JSON timeline (load it in `chrome://tracing` or Perfetto):
/// one complete ("X") slice per executed chunk and park interval, instant
/// events for submits and steals, and thread-name metadata per lane.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "perfeng/observe/trace.hpp"

namespace pe::observe {

/// Folded stacks with weights — the flame-graph interchange structure.
using FoldedStacks = std::map<std::string, std::uint64_t>;

/// Collapse a captured trace into duration-weighted folded stacks:
/// `pool;lane <L>;<frame>` where the leaf frame is the loop's provenance
/// site (`parallel_for@file:line`), `task` for submit-path jobs, or
/// `idle.park` for parked time. Weights are microseconds (minimum 1).
[[nodiscard]] FoldedStacks collapse(const Trace& trace);

/// Write folded stacks in collapsed format, one stack per line.
void write_collapsed(std::ostream& out, const FoldedStacks& stacks);
void write_collapsed(std::ostream& out, const Trace& trace);

/// Write the Chrome trace_event JSON timeline of a captured trace. `ts`
/// and `dur` are microseconds that read back exactly (`ts` is ns / 1000).
void write_chrome_trace(std::ostream& out, const Trace& trace);

/// Render the provenance frame of one record (`parallel_for@file:line`).
[[nodiscard]] std::string provenance_frame(const char* file,
                                           std::uint32_t line);

}  // namespace pe::observe
