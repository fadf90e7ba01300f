// Tests for the pe::analysis race lint: overlapping-write detection with
// exact chunk provenance, the false-positive guard (disjoint partitions
// report clean), the reduce-ordered tree access pattern, checked_span
// semantics, and a chaos-labelled FaultInjector + checker combination.
#include "perfeng/analysis/access_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "perfeng/analysis/checked_span.hpp"
#include "perfeng/common/error.hpp"
#include "perfeng/common/fault_hook.hpp"
#include "perfeng/parallel/parallel_for.hpp"
#include "perfeng/resilience/fault_injection.hpp"

namespace {

using pe::analysis::AccessChecker;
using pe::analysis::checked_span;
using pe::analysis::Conflict;
using pe::analysis::RaceReport;
using pe::analysis::ScopedAccessCheck;

TEST(AccessChecker, DisjointStaticPartitionReportsClean) {
  pe::ThreadPool pool(4);
  std::vector<double> out(400, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(out.data(), out.size(), "out");
    pe::parallel_for_chunks(
        pool, 0, out.size(),
        [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
          for (std::size_t i = lo; i < hi; ++i) span[i] = double(i);
        });
  }
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.loops, 1u);
  EXPECT_GE(report.chunks, 2u);
  EXPECT_GE(report.intervals, report.chunks);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], double(i));
}

TEST(AccessChecker, DynamicScheduleReportsClean) {
  pe::ThreadPool pool(4);
  std::vector<double> out(1000, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(out.data(), out.size(), "out");
    pe::parallel_for(
        pool, 0, out.size(), [&](std::size_t i) { span[i] = 1.0; },
        pe::Schedule::kDynamic, 64);
  }
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(AccessChecker, OverlappingWritePartitionNamesTheChunkPair) {
  pe::ThreadPool pool(4);
  constexpr std::size_t kN = 40;       // 4 static blocks of 10
  constexpr std::size_t kBleed = 5;    // each chunk overruns by 5
  std::vector<double> out(kN + kBleed, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(out.data(), out.size(), "out");
    pe::parallel_for_chunks(
        pool, 0, kN,
        [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
          // Deliberately broken partition: every chunk also writes kBleed
          // elements past its claimed range. The overrun is announced with
          // note() rather than performed, so the test itself stays free of
          // the data race it describes (TSan runs this file).
          for (std::size_t i = lo; i < hi; ++i) span[i] = 1.0;
          span.note(hi, hi + kBleed, true);
        },
        pe::Schedule::kStatic);
  }
  const RaceReport report = checker.report();
  ASSERT_EQ(report.chunks, 4u);
  // Each chunk bleeds into exactly its successor: 3 conflicting pairs.
  ASSERT_EQ(report.conflicts.size(), 3u) << report.to_string();
  std::vector<Conflict> by_range = report.conflicts;
  std::sort(by_range.begin(), by_range.end(),
            [](const Conflict& a, const Conflict& b) {
              return a.lo_byte < b.lo_byte;
            });
  for (std::size_t p = 0; p < by_range.size(); ++p) {
    const Conflict& c = by_range[p];
    EXPECT_TRUE(c.write_write);
    EXPECT_EQ(c.buffer, "out");
    EXPECT_EQ(c.base, out.data());
    // The overlap is the kBleed elements the lower chunk stole from the
    // one claiming [10(p+1), 10(p+2)).
    const std::size_t boundary = 10 * (p + 1);
    EXPECT_EQ(c.lo_byte, boundary * sizeof(double));
    EXPECT_EQ(c.hi_byte, (boundary + kBleed) * sizeof(double));
    // Provenance identifies the two adjacent blocks exactly.
    const auto [lo_chunk, hi_chunk] =
        c.first.lo < c.second.lo ? std::pair(c.first, c.second)
                                 : std::pair(c.second, c.first);
    EXPECT_EQ(lo_chunk.lo, boundary - 10);
    EXPECT_EQ(lo_chunk.hi, boundary);
    EXPECT_EQ(hi_chunk.lo, boundary);
    EXPECT_EQ(hi_chunk.hi, boundary + 10);
    EXPECT_NE(c.first_where.find("test_access_checker"), std::string::npos);
  }
}

TEST(AccessChecker, WriteReadConflictAcrossChunksIsDetected) {
  pe::ThreadPool pool(4);
  std::vector<double> buf(40, 1.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(buf.data(), buf.size(), "buf");
    pe::parallel_for_chunks(
        pool, 0, buf.size(),
        [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
          // Writes its own block, but also reads element 0 — a
          // write/read conflict with whichever chunk owns block 0.
          if (lo != 0) span.note(0, 1, false);
          for (std::size_t i = lo; i < hi; ++i) span[i] = 2.0;
        },
        pe::Schedule::kStatic);
  }
  const RaceReport report = checker.report();
  ASSERT_FALSE(report.clean());
  bool found_write_read = false;
  for (const Conflict& c : report.conflicts)
    if (!c.write_write) found_write_read = true;
  EXPECT_TRUE(found_write_read) << report.to_string();
}

TEST(AccessChecker, ReadOnlyOverlapIsNotAConflict) {
  pe::ThreadPool pool(4);
  std::vector<double> in(100, 3.0);
  std::vector<double> out(100, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<const double> src(in.data(), in.size(), "in");
    checked_span<double> dst(out.data(), out.size(), "out");
    pe::parallel_for(pool, 0, in.size(), [&](std::size_t i) {
      // Every chunk reads the whole input: overlapping reads, no race.
      src.note(0, src.size(), false);
      dst[i] = src.read(i) * 2.0;
    });
  }
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(AccessChecker, SequentialLoopsDoNotConflictWithEachOther) {
  pe::ThreadPool pool(4);
  std::vector<double> buf(64, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(buf.data(), buf.size(), "buf");
    // Two barrier-separated loops both write the whole buffer — ordered,
    // not racy.
    for (int pass = 0; pass < 2; ++pass)
      pe::parallel_for(pool, 0, buf.size(),
                       [&](std::size_t i) { span[i] = double(pass); });
  }
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.loops, 2u);
}

// Regression: under the old flat-epoch model every nested loop opened its
// own concurrency scope, so inner loops launched from *concurrently
// running* chunks of one outer loop were never diffed against each other
// — this exact overlap slipped through. The nesting-path model must flag
// it: the two inner loops' paths first diverge at the outer loop, in
// different outer chunks.
TEST(AccessChecker, NestedLoopsFromConcurrentOuterChunksAreCrossDiffed) {
  pe::ThreadPool pool(2);
  std::vector<double> buf(64, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(buf.data(), buf.size(), "buf");
    // Outer static loop over [0, 2) on a 2-worker pool: exactly two
    // chunks, eligible to run concurrently. Each launches an inner loop
    // whose chunks together claim the WHOLE buffer — so the two inner
    // loops' partitions fully overlap across the outer-chunk boundary.
    pe::parallel_for_chunks(
        pool, 0, 2, [&](std::size_t, std::size_t, std::size_t) {
          pe::parallel_for_chunks(
              pool, 0, buf.size(),
              [&](std::size_t lo, std::size_t hi, std::size_t) {
                span.note(lo, hi, /*is_write=*/true);
              });
        });
  }
  const RaceReport report = checker.report();
  ASSERT_FALSE(report.clean()) << report.to_string();
  EXPECT_EQ(report.loops, 3u);  // outer + two inner
  // The offending pair sits in two *different* inner loops nested under
  // different chunks of the shared outer loop.
  const Conflict& c = report.conflicts.front();
  EXPECT_NE(c.first.loop, c.second.loop);
  ASSERT_EQ(c.first.path.size(), 2u);
  ASSERT_EQ(c.second.path.size(), 2u);
  EXPECT_EQ(c.first.path.front().loop, c.second.path.front().loop);
  EXPECT_NE(c.first.path.front().chunk, c.second.path.front().chunk);
  EXPECT_NE(report.to_string().find("nested via"), std::string::npos);
}

// Negative twin: the same doubly-overlapping inner loops are fine when
// they are launched back-to-back from ONE outer chunk — the first inner
// loop's completion barrier orders them. The enclosing chunk writing the
// buffer itself is also fine: it blocks until its nested loops drain.
TEST(AccessChecker, SequentialNestedLoopsFromOneChunkReportClean) {
  pe::ThreadPool pool(2);
  std::vector<double> buf(64, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(buf.data(), buf.size(), "buf");
    // [0, 1): a single outer chunk, so the two inner loops inside it are
    // barrier-separated, never concurrent.
    pe::parallel_for_chunks(
        pool, 0, 1, [&](std::size_t, std::size_t, std::size_t) {
          span.note(0, span.size(), /*is_write=*/true);
          for (int pass = 0; pass < 2; ++pass)
            pe::parallel_for_chunks(
                pool, 0, buf.size(),
                [&](std::size_t lo, std::size_t hi, std::size_t) {
                  span.note(lo, hi, /*is_write=*/true);
                });
        });
  }
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.loops, 3u);
}

TEST(AccessChecker, ReduceOrderedTreePatternReportsClean) {
  pe::ThreadPool pool(4);
  std::vector<double> data(5000);
  std::iota(data.begin(), data.end(), 1.0);
  AccessChecker checker;
  double sum = 0.0;
  {
    ScopedAccessCheck guard(checker);
    checked_span<const double> span(data.data(), data.size(), "data");
    sum = pe::parallel_reduce_ordered(
        pool, std::size_t{0}, data.size(), 0.0,
        [&](std::size_t i) { return span.read(i); },
        [](double a, double b) { return a + b; }, 256);
  }
  EXPECT_DOUBLE_EQ(sum, 5000.0 * 5001.0 / 2.0);
  const RaceReport report = checker.report();
  // Disjoint read blocks folded into per-block partials: clean by
  // construction, and the checker must agree.
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.chunks, 2u);
}

TEST(AccessChecker, ToStringDescribesConflicts) {
  pe::ThreadPool pool(2);
  std::vector<double> buf(8, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(buf.data(), buf.size(), "shared");
    pe::parallel_for_chunks(
        pool, 0, buf.size(),
        [&](std::size_t, std::size_t, std::size_t) {
          // Every chunk writes the whole buffer.
          span.note(0, span.size(), true);
        },
        pe::Schedule::kStatic);
  }
  const RaceReport report = checker.report();
  ASSERT_FALSE(report.clean());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("write/write"), std::string::npos) << text;
  EXPECT_NE(text.find("'shared'"), std::string::npos) << text;
  EXPECT_NE(text.find("chunk #"), std::string::npos) << text;
}

TEST(AccessChecker, RecordsOutsideAnyChunkAreIgnored) {
  std::vector<double> buf(16, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(buf.data(), buf.size(), "buf");
    span[3] = 1.0;  // no loop running: sequential, not a race
  }
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.unscoped_records, 1u);
  EXPECT_EQ(buf[3], 1.0);
}

TEST(AccessChecker, ResetClearsHistory) {
  pe::ThreadPool pool(2);
  std::vector<double> buf(32, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    checked_span<double> span(buf.data(), buf.size(), "buf");
    pe::parallel_for_chunks(
        pool, 0, buf.size(),
        [&](std::size_t, std::size_t, std::size_t) {
          span.note(0, span.size(), true);
        });
  }
  ASSERT_FALSE(checker.report().clean());
  checker.reset();
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.chunks, 0u);
  EXPECT_EQ(report.loops, 0u);
}

TEST(AccessChecker, NestedScopesAreRejected) {
  AccessChecker a;
  AccessChecker b;
  ScopedAccessCheck guard(a);
  EXPECT_THROW(ScopedAccessCheck inner(b), pe::Error);
  // The rejected install leaves the first checker in place.
  EXPECT_EQ(pe::HookSlot<pe::AccessHook>::installed(), &a);
}

TEST(CheckedSpan, ProxyReadsWritesAndCompoundAssign) {
  std::vector<double> buf{1.0, 2.0, 3.0};
  checked_span<double> span(buf.data(), buf.size(), "buf");
  span[0] = 10.0;
  span[1] += 5.0;
  const double v = span[2];
  EXPECT_EQ(buf[0], 10.0);
  EXPECT_EQ(buf[1], 7.0);
  EXPECT_EQ(v, 3.0);
  EXPECT_EQ(span.read(0), 10.0);
  span.write(2, -1.0);
  EXPECT_EQ(buf[2], -1.0);
}

TEST(CheckedSpan, OutOfBoundsNoteThrows) {
  std::vector<double> buf(4, 0.0);
  checked_span<double> span(buf.data(), buf.size(), "buf");
  EXPECT_THROW(span.note(0, 5, true), pe::Error);
  EXPECT_THROW((void)span[4], pe::Error);
}

// Chaos: chunks that throw injected faults must not wedge the checker —
// chunk scopes close via RAII, and the partition verdict on the surviving
// records is still correct.
TEST(AccessCheckerChaos, FaultedChunksStillProduceAConsistentReport) {
  pe::ThreadPool pool(4);
  std::vector<double> out(400, 0.0);
  pe::resilience::FaultPlan plan;
  plan.seed = 42;
  pe::resilience::FaultSpec spec;
  spec.site = "kernel.call";
  spec.kind = pe::resilience::FaultKind::kThrow;
  spec.probability = 0.5;
  plan.faults.push_back(spec);
  AccessChecker checker;
  bool threw = false;
  {
    pe::resilience::ScopedFaultInjection chaos(plan);
    ScopedAccessCheck guard(checker);
    checked_span<double> span(out.data(), out.size(), "out");
    try {
      pe::parallel_for_chunks(
          pool, 0, out.size(),
          [&](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
            pe::fault_point(pe::fault_sites::kKernelCall);
            for (std::size_t i = lo; i < hi; ++i) span[i] = 1.0;
          },
          pe::Schedule::kDynamic, 16);
    } catch (const pe::resilience::FaultInjected&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);  // p=0.5 over ~25 chunks: fires with near-certainty
  const RaceReport report = checker.report();
  // Surviving chunks wrote disjoint dynamic blocks: still clean.
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.chunks, 1u);
}

}  // namespace
