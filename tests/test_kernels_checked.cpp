// AccessChecker adoption for the shipped parallel kernels: the packed
// matmul and the balanced SpMV run under the race lint and must prove
// their partitions disjoint-write (while still computing the right
// answer). This is the guarantee Assignment 1/3 student baselines build
// on — see docs/analysis.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "perfeng/analysis/access_checker.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/kernels/graph.hpp"
#include "perfeng/kernels/histogram.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/kernels/stencil.hpp"
#include "perfeng/kernels/transpose.hpp"
#include "perfeng/parallel/thread_pool.hpp"

namespace {

using pe::analysis::AccessChecker;
using pe::analysis::RaceReport;
using pe::analysis::ScopedAccessCheck;

TEST(KernelsUnderChecker, PackedMatmulPartitionIsDisjointWrite) {
  pe::ThreadPool pool(4);
  // Remainder shape: exercises edge tiles of the register blocking.
  pe::kernels::Matrix a(50, 70), b(70, 90), out(50, 90), reference(50, 90);
  pe::Rng rng(7);
  a.randomize(rng);
  b.randomize(rng);
  pe::kernels::matmul_interchanged(a, b, reference);

  // Small panels force several jc/pc/ic iterations, so the checker sees
  // many loops and many chunks, not one giant block.
  pe::kernels::MatmulBlocking blocking{.mc = 16, .kc = 32, .nc = 32};
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::matmul_parallel_packed(a, b, out, pool, blocking);
  }
  EXPECT_LT(out.max_abs_diff(reference), 1e-10);

  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.loops, 3u);  // zero-fill + pack-B + compute sweeps
  EXPECT_GT(report.intervals, 0u);
}

// Default blocking at N=128 on 3 workers: mc (128) would make the whole
// product one row panel, which the calling thread runs alone. Capped at
// one panel per lane, the sweep becomes 4 panels of 32 rows, claimed by
// all 4 lanes, and the result does not change by a single bit.
TEST(KernelsUnderChecker, PackedMatmulGivesEveryLaneARowPanel) {
  const std::size_t n = 128;
  pe::kernels::Matrix a(n, n), b(n, n), out(n, n), inline_out(n, n);
  pe::Rng rng(11);
  a.randomize(rng);
  b.randomize(rng);
  {
    pe::ThreadPool one(1);  // one worker: every loop runs on the caller
    pe::kernels::matmul_parallel_packed(a, b, inline_out, one);
  }

  pe::ThreadPool pool(3);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::matmul_parallel_packed(a, b, out, pool);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(out(i, j), inline_out(i, j)) << i << "," << j;

  // Three loops: zero-fill C (one static block per worker), pack B (16
  // strips in claims of 8), then the row-panel sweep.
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.loops, 3u);
  const std::size_t zero_fill_chunks = pool.size(), pack_b_chunks = 2;
  EXPECT_GE(report.chunks, zero_fill_chunks + pack_b_chunks + 4);
}

TEST(KernelsUnderChecker, BalancedSpmvPartitionIsDisjointWrite) {
  pe::ThreadPool pool(4);
  pe::Rng rng(13);
  // Power-law rows: the shape that makes the balanced partition earn its
  // keep (a few heavy rows, many light ones).
  pe::kernels::CooMatrix coo = pe::kernels::generate_sparse(
      600, 600, 0.02, pe::kernels::SparsityPattern::kPowerLaw, rng);
  const pe::kernels::CsrMatrix csr = pe::kernels::coo_to_csr(coo);
  std::vector<double> x(csr.cols, 1.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = double(i % 17) * 0.25;
  std::vector<double> expected(csr.rows, 0.0);
  pe::kernels::spmv_csr(csr, x, expected);

  std::vector<double> y(csr.rows, 0.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::spmv_csr_parallel_balanced(csr, x, y, pool);
  }
  EXPECT_EQ(y, expected);  // balanced variant matches serial exactly

  // One claim per partition part: kSpmvChunksPerLane parts for each lane
  // (the 4 workers and the calling thread).
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.loops, 1u);
  EXPECT_EQ(report.chunks,
            (pool.size() + 1) * pe::kernels::kSpmvChunksPerLane);
}

TEST(KernelsUnderChecker, DynamicSpmvPartitionIsDisjointWrite) {
  pe::ThreadPool pool(3);
  pe::Rng rng(29);
  pe::kernels::CooMatrix coo = pe::kernels::generate_sparse(
      500, 500, 0.01, pe::kernels::SparsityPattern::kUniform, rng);
  const pe::kernels::CsrMatrix csr = pe::kernels::coo_to_csr(coo);
  const std::vector<double> x(csr.cols, 0.5);
  std::vector<double> y(csr.rows, 0.0);

  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::spmv_csr_parallel(csr, x, y, pool);
  }
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.chunks, 2u);
}

TEST(KernelsUnderChecker, SellSpmvChunkPartitionIsDisjointWrite) {
  pe::ThreadPool pool(4);
  pe::Rng rng(31);
  // Power-law + remainder row count: heavy chunks, a partial tail chunk.
  const auto csr = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      517, 400, 0.02, pe::kernels::SparsityPattern::kPowerLaw, rng));
  const auto sell = pe::kernels::csr_to_sell(csr, 32);
  std::vector<double> x(csr.cols);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = double(i % 13) * 0.5;
  std::vector<double> expected(csr.rows, 0.0);
  pe::kernels::spmv_csr(csr, x, expected);

  std::vector<double> y(csr.rows, -1.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::spmv_sell_parallel(sell, x, y, pool);
  }
  EXPECT_EQ(y, expected);  // SELL promises the exact CSR summation order

  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.chunks, 2u);
}

TEST(KernelsUnderChecker, EllSpmvRowPartitionIsDisjointWrite) {
  pe::ThreadPool pool(4);
  pe::Rng rng(37);
  const auto csr = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      700, 300, 0.01, pe::kernels::SparsityPattern::kBanded, rng));
  const auto ell = pe::kernels::csr_to_ell(csr);
  std::vector<double> x(csr.cols, 0.75);
  std::vector<double> expected(csr.rows, 0.0);
  pe::kernels::spmv_csr(csr, x, expected);

  std::vector<double> y(csr.rows, -1.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::spmv_ell_parallel(ell, x, y, pool);
  }
  EXPECT_EQ(y, expected);

  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.chunks, 2u);
}

TEST(KernelsUnderChecker, CooSpmvEntryPartitionIsDisjointWrite) {
  pe::ThreadPool pool(4);
  pe::Rng rng(41);
  // Power-law: many entries share heavy rows, so the entry-balanced
  // boundaries must visibly snap to row edges to stay disjoint.
  const auto coo = pe::kernels::csr_to_coo(pe::kernels::coo_to_csr(
      pe::kernels::generate_sparse(
          450, 450, 0.02, pe::kernels::SparsityPattern::kPowerLaw, rng)));
  std::vector<double> x(coo.cols);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = double(i % 7) - 3.0;
  std::vector<double> expected(coo.rows, 0.0);
  pe::kernels::spmv_coo(coo, x, expected);

  std::vector<double> y(coo.rows, -1.0);
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::spmv_coo_parallel(coo, x, y, pool);
  }
  EXPECT_EQ(y, expected);

  // One part per lane (the 4 workers and the calling thread), each its own
  // claim, so no lane runs two parts back to back.
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.chunks, pool.size() + 1);
}

TEST(KernelsUnderChecker, StencilRowPartitionIsDisjointWrite) {
  pe::ThreadPool pool(4);
  pe::kernels::Grid2D in(40, 36), out(40, 36), reference(40, 36);
  for (std::size_t r = 0; r < in.rows(); ++r)
    for (std::size_t c = 0; c < in.cols(); ++c)
      in.at(r, c) = double((r * 7 + c * 3) % 11) * 0.1;
  pe::kernels::stencil_step_naive(in, reference);

  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::stencil_step_parallel(in, out, pool);
  }
  EXPECT_LT(out.max_abs_diff(reference), 1e-12);

  // Halo reads overlap between neighbouring chunks; writes never do.
  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.chunks, 2u);
}

TEST(KernelsUnderChecker, HistogramVariantsClaimTheirIndexReads) {
  pe::ThreadPool pool(4);
  pe::Rng rng(17);
  const auto indices =
      pe::kernels::generate_zipf_indices(20000, 256, 1.1, rng);
  std::vector<std::uint64_t> expected(256, 0);
  pe::kernels::histogram_serial(indices, expected);

  for (const bool atomic_variant : {true, false}) {
    std::vector<std::uint64_t> counts(256, 0);
    AccessChecker checker;
    {
      ScopedAccessCheck guard(checker);
      if (atomic_variant)
        pe::kernels::histogram_parallel_atomic(indices, counts, pool);
      else
        pe::kernels::histogram_parallel_private(indices, counts, pool);
    }
    EXPECT_EQ(counts, expected);
    const RaceReport report = checker.report();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_GT(report.intervals, 0u);
  }
}

TEST(KernelsUnderChecker, TransposeParallelOutputSlabsAreDisjoint) {
  pe::ThreadPool pool(4);
  pe::Rng rng(23);
  pe::kernels::Matrix in(45, 33), out(33, 45), reference(33, 45);
  in.randomize(rng);
  pe::kernels::transpose_naive(in, reference);

  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    pe::kernels::transpose_parallel(in, out, pool, /*block=*/8);
  }
  EXPECT_EQ(out, reference);

  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.chunks, 2u);
}

TEST(KernelsUnderChecker, PagerankPrivateAccumulatorsAreDisjoint) {
  pe::ThreadPool pool(4);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const std::uint32_t n = 200;
  for (std::uint32_t v = 0; v < n; ++v) {
    edges.push_back({v, (v + 1) % n});
    edges.push_back({v, (v * 7 + 3) % n});
    if (v % 13 == 0) edges.push_back({v, 0});
  }
  const auto g = pe::kernels::Graph::from_edges(n, edges);
  const auto expected = pe::kernels::pagerank(g);

  std::vector<double> ranks;
  AccessChecker checker;
  {
    ScopedAccessCheck guard(checker);
    ranks = pe::kernels::pagerank_parallel(g, pool);
  }
  ASSERT_EQ(ranks.size(), expected.size());
  for (std::size_t v = 0; v < ranks.size(); ++v)
    EXPECT_NEAR(ranks[v], expected[v], 1e-9);

  const RaceReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.loops, 1u);
}

TEST(KernelsUnderChecker, InstrumentationIsInertWithoutAChecker) {
  // No hook installed: the instrumented kernels must behave identically
  // (this also guards the fast path the perf-smoke CI job measures).
  pe::ThreadPool pool(2);
  pe::kernels::Matrix a(24, 24), b(24, 24), out(24, 24), reference(24, 24);
  pe::Rng rng(3);
  a.randomize(rng);
  b.randomize(rng);
  pe::kernels::matmul_interchanged(a, b, reference);
  pe::kernels::matmul_parallel_packed(a, b, out, pool);
  EXPECT_LT(out.max_abs_diff(reference), 1e-10);
}

}  // namespace
