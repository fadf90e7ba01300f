#pragma once

/// \file access_hook.hpp
/// Process-wide memory-access instrumentation hook points.
///
/// The race lint in perfeng_analysis needs to see which byte ranges each
/// parallel chunk reads and writes. Rather than make every kernel depend on
/// the analysis library, the parallel runtime announces loop and chunk
/// boundaries here, kernels (and student code via
/// `pe::analysis::checked_span`) announce the ranges they touch, and all of
/// it is a no-op costing one relaxed atomic load until an `AccessHook` —
/// normally a `pe::analysis::AccessChecker` — is installed through the hook
/// spine (hook.hpp). The hook lives here (not in
/// perfeng_analysis) so the thread pool and the kernels can host
/// instrumentation points without a layering inversion.

#include <cstddef>
#include <source_location>

#include "perfeng/common/hook.hpp"

namespace pe {

/// Interface a race checker implements to observe parallel-loop accesses.
/// Implementations must be thread-safe: chunks fire from worker threads.
/// Every method is noexcept — instrumentation must never alter the control
/// flow of the code under observation.
class AccessHook {
 public:
  virtual ~AccessHook() = default;

  /// A new parallel loop over [begin, end) is starting on the calling
  /// thread. Returns a loop token that the runtime hands back with every
  /// chunk of this loop (and with `end_loop`), so the hook can tie chunks
  /// to their launching context: when `begin_loop` fires from inside an
  /// active chunk, the new loop is *nested* and its chunks may run
  /// concurrently with chunks of sibling inner loops launched from other
  /// chunks of the same outer loop. Zero is reserved for "no loop".
  virtual std::size_t begin_loop(std::size_t begin,
                                 std::size_t end) noexcept = 0;

  /// The loop announced by the matching `begin_loop` has quiesced.
  virtual void end_loop(std::size_t loop_token) noexcept = 0;

  /// The calling thread starts executing the chunk [lo, hi) of the loop
  /// identified by `loop_token` on `lane`.
  virtual void begin_chunk(std::size_t loop_token, std::size_t lo,
                           std::size_t hi, std::size_t lane) noexcept = 0;

  /// The calling thread finished its current chunk.
  virtual void end_chunk() noexcept = 0;

  /// The current chunk accessed bytes [lo_byte, hi_byte) of the buffer
  /// identified by `base`. `tag` names the buffer in reports; `file`/`line`
  /// locate the instrumentation site (or the `checked_span` creation).
  virtual void record(const void* base, std::size_t lo_byte,
                      std::size_t hi_byte, bool is_write, const char* tag,
                      const char* file, unsigned line) noexcept = 0;
};

/// Record that the current chunk touches elements [lo, hi) of the buffer
/// at `base` whose elements are `elem_size` bytes; no-op unless hooked.
/// Call once per chunk at range granularity — the checker coalesces, but
/// one call is cheaper.
inline void access_record(
    const void* base, std::size_t elem_size, std::size_t lo, std::size_t hi,
    bool is_write, const char* tag,
    std::source_location loc = std::source_location::current()) noexcept {
  if (const auto hook = HookSlot<AccessHook>::pin())
    hook->record(base, lo * elem_size, hi * elem_size, is_write, tag,
                 loc.file_name(), static_cast<unsigned>(loc.line()));
}

/// RAII chunk scope used by the parallel runtime: one pin for the chunk, so
/// `begin_chunk` and `end_chunk` reach the same hook — even when the chunk
/// body throws, and even when the hook is uninstalled meanwhile.
class AccessChunkScope {
 public:
  AccessChunkScope(std::size_t loop_token, std::size_t lo, std::size_t hi,
                   std::size_t lane) noexcept {
    if (hook_) hook_->begin_chunk(loop_token, lo, hi, lane);
  }
  ~AccessChunkScope() {
    if (hook_) hook_->end_chunk();
  }

  AccessChunkScope(const AccessChunkScope&) = delete;
  AccessChunkScope& operator=(const AccessChunkScope&) = delete;

 private:
  const HookSlot<AccessHook>::Pin hook_ = HookSlot<AccessHook>::pin();
};

}  // namespace pe
