// Tests of the benchmark's own arithmetic: the tail rule, self time, the
// thread budget, and the small oracle and provenance helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "host.hpp"
#include "perfeng/parallel/thread_pool.hpp"
#include "perfeng/service/service.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(0), 50.0);
}

TEST(TailRule, ReportsPercentileValueAndCount) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const Tail t = tail(xs);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_NEAR(t.value, 990.01, 1e-9);  // rank 0.99 * 999 = 989.01
  const Tail small = tail(std::vector<double>{3.0, 1.0, 2.0});
  EXPECT_EQ(small.percentile, 50.0);
  EXPECT_EQ(small.value, 2.0);
}

TEST(SelfTime, CoveredCountsOverlapsOnceAndClipsToTheParent) {
  EXPECT_EQ(covered_ns(0, 100, {}), 0u);
  EXPECT_EQ(covered_ns(0, 100, {{10, 20}, {30, 50}}), 30u);
  EXPECT_EQ(covered_ns(0, 100, {{10, 40}, {30, 50}}), 40u);   // overlap
  EXPECT_EQ(covered_ns(0, 100, {{30, 50}, {10, 40}}), 40u);   // unsorted
  EXPECT_EQ(covered_ns(10, 20, {{0, 15}, {18, 40}}), 7u);     // clipped
  EXPECT_EQ(covered_ns(10, 20, {{0, 5}, {25, 40}}), 0u);      // outside
  EXPECT_EQ(covered_ns(0, 100, {{10, 90}, {20, 30}}), 80u);   // nested
}

TEST(SelfTime, SpanLogSubtractsOnlyDirectChildren) {
  SpanLog log;
  const auto step = log.add("step", 0, 1000, 7);
  const auto call =
      log.add("kernels.stencil", 100, 600, 7, static_cast<std::int64_t>(step));
  log.add("parallel.wait", 100, 150, 7, static_cast<std::int64_t>(call));
  log.add("parallel.wait", 500, 600, 7, static_cast<std::int64_t>(call));
  log.add("kernels.spmv", 600, 900, 7, static_cast<std::int64_t>(step));
  const std::vector<std::uint64_t> self = log.self_times();
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 200u);  // 1000 - (500 + 300)
  EXPECT_EQ(self[1], 350u);  // 500 - (50 + 100)
  EXPECT_EQ(self[2], 50u);
  EXPECT_EQ(self[3], 100u);
  EXPECT_EQ(self[4], 300u);
  // Self times plus every leaf add up to the root's duration.
  std::uint64_t total = 0;
  for (const std::uint64_t s : self) total += s;
  EXPECT_EQ(total, 1000u);
}

TEST(SelfTime, RejectsInvertedSpansAndForwardParents) {
  SpanLog log;
  EXPECT_ANY_THROW(log.add("x", 10, 5, 0));
  EXPECT_ANY_THROW(log.add("x", 0, 5, 0, 0));  // parent not added yet
}

TEST(ThreadBudget, PoolWorkersLeaveALaneForTheCaller) {
  EXPECT_EQ(pool_workers(4), 3u);
  EXPECT_EQ(pool_workers(2), 1u);
  EXPECT_EQ(pool_workers(1), 1u);  // a pool needs one worker
}

TEST(ThreadBudget, KernelPoolAndCallerFitInNproc) {
  const Host host = describe_host();
  if (host.nproc < 2) GTEST_SKIP() << "budget needs at least 2 CPUs";
  ThreadBudget budget(host.nproc);
  {
    pe::ThreadPool pool(pool_workers(host.nproc));
    budget.sample();
  }
  EXPECT_TRUE(budget.held()) << budget.max_seen() << " > " << host.nproc;
  EXPECT_GE(budget.max_seen(), host.nproc);  // the sample saw the pool
}

TEST(ThreadBudget, ServiceWorkersAndGeneratorFitInNproc) {
  const Host host = describe_host();
  if (host.nproc < 2) GTEST_SKIP() << "budget needs at least 2 CPUs";
  ThreadBudget budget(host.nproc);
  {
    pe::service::ServiceConfig config;
    config.workers = pool_workers(host.nproc);
    pe::service::BenchmarkService service(config);
    budget.sample();
  }
  EXPECT_TRUE(budget.held()) << budget.max_seen() << " > " << host.nproc;
}

TEST(ThreadBudget, DetectsAnExtraThread) {
  ThreadBudget budget(static_cast<unsigned>(live_threads()));
  std::thread extra([&] { budget.sample(); });
  extra.join();
  EXPECT_FALSE(budget.held());
}

TEST(Oracle, UlpDistance) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0u);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulp_distance(std::nextafter(1.0, 0.0), 1.0), 1u);
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(ulp_distance(-tiny, tiny), 2u);
  EXPECT_EQ(ulp_distance(std::nan(""), 1.0),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Provenance, ParsesSysfsCacheSizes) {
  EXPECT_EQ(parse_cache_size("48K"), 48u * 1024u);
  EXPECT_EQ(parse_cache_size("307200K"), 307200u * 1024u);
  EXPECT_EQ(parse_cache_size("2M"), 2u << 20);
  EXPECT_EQ(parse_cache_size("4096"), 4096u);
  EXPECT_EQ(parse_cache_size(""), 0u);
  EXPECT_EQ(parse_cache_size("12Q"), 0u);
}

}  // namespace
}  // namespace perfbench
