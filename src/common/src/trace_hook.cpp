#include "perfeng/common/trace_hook.hpp"

namespace pe {

const char* trace_event_kind_name(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kSubmit: return "submit";
    case TraceEventKind::kSteal: return "steal";
    case TraceEventKind::kTaskStart: return "task_start";
    case TraceEventKind::kTaskFinish: return "task_finish";
    case TraceEventKind::kPark: return "park";
    case TraceEventKind::kUnpark: return "unpark";
    case TraceEventKind::kContended: return "contended";
    case TraceEventKind::kLoopBegin: return "loop_begin";
    case TraceEventKind::kLoopEnd: return "loop_end";
    case TraceEventKind::kChunkStart: return "chunk_start";
    case TraceEventKind::kChunkFinish: return "chunk_finish";
  }
  return "?";
}

}  // namespace pe
