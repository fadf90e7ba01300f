#include "perfeng/observe/export.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <string_view>
#include <vector>

#include "perfeng/common/json.hpp"

namespace pe::observe {

std::string provenance_frame(const char* file, std::uint32_t line) {
  if (file == nullptr) return "task";
  std::string frame = "parallel_for@";
  // Frames keep only the repo-relative tail of __FILE__-style paths so
  // flame graphs from different build trees merge.
  std::string_view path(file);
  const std::size_t src = path.rfind("/src/");
  const std::size_t bench = path.rfind("/bench/");
  const std::size_t tests = path.rfind("/tests/");
  std::size_t cut = std::string_view::npos;
  for (const std::size_t pos : {src, bench, tests})
    if (pos != std::string_view::npos && (cut == std::string_view::npos ||
                                          pos < cut))
      cut = pos;
  if (cut != std::string_view::npos) path.remove_prefix(cut + 1);
  frame.append(path);
  frame.push_back(':');
  frame.append(std::to_string(line));
  return frame;
}

namespace {

/// Per-lane interval reconstruction shared by both exporters: pairs
/// start/finish events of chunks, tasks, and parks in time order.
struct Interval {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t lane = 0;
  std::string frame;
  std::uint64_t lo = 0, hi = 0;  ///< chunk payload (0 for parks/tasks)
};

std::vector<Interval> reconstruct_intervals(const Trace& trace) {
  struct Open {
    std::uint64_t ns = 0;
    std::string frame;
    std::uint64_t lo = 0, hi = 0;
    bool active = false;
  };
  std::map<std::uint32_t, Open> open_chunk, open_task, open_park;
  std::vector<Interval> out;
  const auto close = [&out](std::map<std::uint32_t, Open>& open,
                            const TraceRecord& e) {
    Open& o = open[e.lane];
    if (!o.active) return;
    out.push_back({o.ns, e.ns, e.lane, std::move(o.frame), o.lo, o.hi});
    o.active = false;
  };
  for (const TraceRecord& e : trace.events) {
    switch (e.kind) {
      case TraceEventKind::kChunkStart:
        open_chunk[e.lane] =
            {e.ns, provenance_frame(e.file, e.line), e.a, e.b, true};
        break;
      case TraceEventKind::kChunkFinish:
        close(open_chunk, e);
        break;
      case TraceEventKind::kTaskStart:
        // Bulk job copies immediately open chunk scopes; track the task
        // span anyway so submit-path jobs (no chunks) get a frame.
        open_task[e.lane] = {e.ns, "task", 0, 0, true};
        break;
      case TraceEventKind::kTaskFinish:
        close(open_task, e);
        break;
      case TraceEventKind::kPark:
        open_park[e.lane] = {e.ns, "idle.park", 0, 0, true};
        break;
      case TraceEventKind::kUnpark:
        close(open_park, e);
        break;
      default:
        break;
    }
  }
  return out;
}

/// Chunk intervals subsume the task interval that hosts them; drop task
/// intervals that overlap any chunk interval on the same lane so folded
/// weights are not double-counted.
std::vector<Interval> deduplicated(std::vector<Interval> intervals) {
  std::vector<Interval> chunks;
  for (const Interval& iv : intervals)
    if (iv.frame != "task" && iv.frame != "idle.park") chunks.push_back(iv);
  std::vector<Interval> out;
  for (Interval& iv : intervals) {
    if (iv.frame == "task") {
      const bool hosts_chunk = std::any_of(
          chunks.begin(), chunks.end(), [&iv](const Interval& c) {
            return c.lane == iv.lane && c.start_ns < iv.end_ns &&
                   iv.start_ns < c.end_ns;
          });
      if (hosts_chunk) continue;
    }
    out.push_back(std::move(iv));
  }
  return out;
}

}  // namespace

FoldedStacks collapse(const Trace& trace) {
  FoldedStacks stacks;
  for (const Interval& iv : deduplicated(reconstruct_intervals(trace))) {
    const std::uint64_t us = std::max<std::uint64_t>(
        1, (iv.end_ns - iv.start_ns) / 1000);
    stacks["pool;lane " + std::to_string(iv.lane) + ";" + iv.frame] += us;
  }
  return stacks;
}

void write_collapsed(std::ostream& out, const FoldedStacks& stacks) {
  for (const auto& [stack, weight] : stacks)
    out << stack << " " << weight << "\n";
}

void write_collapsed(std::ostream& out, const Trace& trace) {
  write_collapsed(out, collapse(trace));
}

void write_chrome_trace(std::ostream& out, const Trace& trace) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  // Thread-name metadata: one row per lane seen in the trace.
  std::map<std::uint32_t, bool> lanes_seen;
  for (const TraceRecord& e : trace.events) lanes_seen[e.lane] = true;
  for (const auto& [lane, seen] : lanes_seen) {
    (void)seen;
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"lane " << lane
        << (lane + 1 == trace.lanes ? " (external)" : "") << "\"}}";
  }
  for (const Interval& iv : reconstruct_intervals(trace)) {
    sep();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << iv.lane
        << ",\"name\":" << json_quote(iv.frame)
        << ",\"ts\":" << json_double(static_cast<double>(iv.start_ns) / 1000.0)
        << ",\"dur\":"
        << json_double(static_cast<double>(iv.end_ns - iv.start_ns) / 1000.0);
    if (iv.hi > iv.lo)
      out << ",\"args\":{\"lo\":" << iv.lo << ",\"hi\":" << iv.hi << "}";
    out << "}";
  }
  for (const TraceRecord& e : trace.events) {
    if (e.kind != TraceEventKind::kSubmit &&
        e.kind != TraceEventKind::kSteal &&
        e.kind != TraceEventKind::kContended)
      continue;
    sep();
    out << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << e.lane
        << ",\"name\":\"" << trace_event_kind_name(e.kind)
        << "\",\"ts\":" << json_double(static_cast<double>(e.ns) / 1000.0)
        << "}";
  }
  out << "\n]}\n";
}

}  // namespace pe::observe
