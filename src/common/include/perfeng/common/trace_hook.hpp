#pragma once

/// \file trace_hook.hpp
/// Process-wide scheduler-tracing hook points.
///
/// The work-stealing pool is the hot substrate under every parallel kernel,
/// but without observability it is a black box: where does worker time go,
/// how long do tasks wait between submit and start, which locks and
/// park/unpark cycles eat throughput? The scheduler and the bulk-loop
/// runtime announce task lifecycle events (submit, steal, start, finish,
/// park, unpark, contended lock acquisitions) and loop/chunk provenance,
/// and all of it is a no-op costing one relaxed atomic load until a
/// `TraceHook` — normally a `pe::observe::Tracer` — is installed through
/// the hook spine (hook.hpp). The hook lives here (not in perfeng_observe)
/// so the thread pool and the loop runtime can host instrumentation points
/// without a layering inversion.
///
/// Single events go through `trace_event`. The pool pins the hook once per
/// job copy and once per bulk loop, so a tracer that received a
/// kTaskStart, kChunkStart or kLoopBegin receives the matching finish or
/// end before it can be uninstalled.

#include <cstddef>
#include <cstdint>

#include "perfeng/common/hook.hpp"

namespace pe {

/// Kinds of scheduler/loop lifecycle events. Values are stable: they name
/// event records in serialized traces (see docs/observability.md).
enum class TraceEventKind : std::uint8_t {
  kSubmit = 0,      ///< task/bulk loop handed to the pool (obj = job key)
  kSteal = 1,       ///< a worker stole a job from another worker's deque
  kTaskStart = 2,   ///< a claimed job began executing on a lane
  kTaskFinish = 3,  ///< the job claimed by the matching kTaskStart returned
  kPark = 4,        ///< an idle worker parked on the pool's condition var
  kUnpark = 5,      ///< a parked worker woke
  kContended = 6,   ///< a deque/inbox lock acquisition had to wait
  kLoopBegin = 7,   ///< bulk loop dispatch (obj = loop key, a/b = range)
  kLoopEnd = 8,     ///< the loop announced by kLoopBegin quiesced
  kChunkStart = 9,  ///< chunk [a, b) of loop obj claimed by a lane
  kChunkFinish = 10 ///< the chunk claimed by the matching kChunkStart ended
};

/// Number of distinct TraceEventKind values (array sizing).
inline constexpr std::size_t kTraceEventKinds = 11;

/// Human-readable event-kind name (stable, used by trace serialization).
[[nodiscard]] const char* trace_event_kind_name(TraceEventKind kind) noexcept;

/// Interface a tracer implements to observe scheduler events.
/// Implementations must be thread-safe and wait-free on the emission path:
/// events fire from worker threads inside dispatch loops, and a tracer
/// that blocks would perturb exactly the behaviour it measures. The hook
/// timestamps events itself (so tests can inject deterministic clocks).
class TraceHook {
 public:
  virtual ~TraceHook() = default;

  /// One scheduler event on `lane`. `obj` is a correlation key (job arg or
  /// loop record address) valid only for matching events of one trace, not
  /// for dereferencing. `a`/`b` carry kind-specific payload (chunk bounds,
  /// broadcast copy counts). `file`/`line` locate the provenance site
  /// (static storage duration; may be null/0 when the site has none).
  virtual void on_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                        std::uint64_t b, std::size_t lane, const char* file,
                        std::uint32_t line) noexcept = 0;
};

/// Emit one scheduler event, without provenance, under a single-event pin:
/// one load and a branch when no tracer is installed.
inline void trace_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                        std::uint64_t b, std::size_t lane) noexcept {
  if (const auto hook = HookSlot<TraceHook>::pin())
    hook->on_event(kind, obj, a, b, lane, nullptr, 0);
}

}  // namespace pe
