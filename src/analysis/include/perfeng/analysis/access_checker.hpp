#pragma once

/// \file access_checker.hpp
/// Interval-based race lint for data-parallel loops.
///
/// The checker is a lockset-free race detector tailored to the one pattern
/// the toolbox's `parallel_for` family promises: *chunks of one loop write
/// disjoint ranges*. While installed (via `ScopedAccessCheck`), the
/// parallel runtime announces every loop and chunk, and instrumented code
/// — the shipped kernels via `pe::access_record`, student code via
/// `checked_span` — announces the byte ranges each chunk reads and writes.
/// `report()` then diffs the per-chunk interval sets and returns a
/// `RaceReport` naming the exact conflicting chunk pairs, buffers, byte
/// ranges, and source locations.
///
/// Because the check is on the *partition*, not on this run's thread
/// timing, it also catches latent races: two overlapping chunks that
/// happened to execute on the same lane are still reported (flagged
/// `same_lane`) — a dynamic scheduler could legally have raced them.
///
/// Scope and limits: each chunk carries its full loop-nesting path (the
/// chain of enclosing loops and chunks down from the outermost loop), so
/// two chunks are diffed exactly when their paths first diverge within
/// one loop — which covers chunks of one flat loop *and* chunks of two
/// inner loops launched from concurrently-running chunks of the same
/// outer loop. Paths diverging across different loops are ordered by the
/// earlier loop's completion barrier, and an enclosing chunk never races
/// its own nested loop (it blocks until the inner loop drains).
/// Lane-indexed private scratch (e.g. the packed-matmul A panels) is
/// intentionally outside the model — it is partitioned by lane, not by
/// chunk — and should not be recorded. See docs/analysis.md.

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "perfeng/common/access_hook.hpp"
#include "perfeng/analysis/race_report.hpp"

namespace pe::analysis {

/// Records chunk/interval provenance while installed as the process-wide
/// AccessHook; thread-safe (chunks fire from pool workers). Install with
/// `ScopedAccessCheck`, run the loops under test, then call `report()`.
class AccessChecker final : public AccessHook {
 public:
  AccessChecker() = default;

  // AccessHook interface (called by the runtime; not for direct use).
  std::size_t begin_loop(std::size_t begin,
                         std::size_t end) noexcept override;
  void end_loop(std::size_t loop_token) noexcept override;
  void begin_chunk(std::size_t loop_token, std::size_t lo, std::size_t hi,
                   std::size_t lane) noexcept override;
  void end_chunk() noexcept override;
  void record(const void* base, std::size_t lo_byte, std::size_t hi_byte,
              bool is_write, const char* tag, const char* file,
              unsigned line) noexcept override;

  /// Diff the per-chunk interval sets recorded so far. Safe to call after
  /// the loops under test have completed (not concurrently with them).
  [[nodiscard]] RaceReport report() const;

  /// Drop everything recorded so far (loop/chunk counters restart).
  void reset();

 private:
  /// One coalesced access interval of one chunk.
  struct Interval {
    const void* base;
    const char* tag;
    std::size_t lo_byte, hi_byte;
    bool write;
    const char* file;
    unsigned line;
  };

  /// Everything one executed chunk touched. Appended to by exactly one
  /// thread (the one that announced the chunk), read by report().
  struct ChunkLog {
    ChunkProvenance id;
    std::vector<Interval> intervals;
  };

  /// Nesting prefix of one announced loop: the path of the chunk the
  /// launching thread was executing when it called begin_loop (empty for
  /// a top-level loop).
  struct LoopInfo {
    std::vector<ChunkStep> prefix;
  };

  mutable std::mutex mutex_;        // guards chunks_/loops_/counters below
  std::deque<ChunkLog> chunks_;     // deque: stable addresses for the
                                    // per-thread active-chunk stack
  std::deque<LoopInfo> loop_infos_; // index = loop token - 1
  std::size_t next_chunk_ = 0;
  std::size_t loops_ = 0;
  std::atomic<std::size_t> unscoped_records_{0};
};

/// RAII installer: makes `checker` the process-wide AccessHook for the
/// scope's lifetime; the destructor waits until no chunk or loop is still
/// announcing to it. Only one hook may be active at a time (nesting
/// throws pe::Error — overlapping checker scopes are a test bug).
class ScopedAccessCheck {
 public:
  explicit ScopedAccessCheck(AccessChecker& checker) : scope_(checker) {}

 private:
  ScopedHook<AccessHook> scope_;
};

}  // namespace pe::analysis
