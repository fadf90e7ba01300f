// Tests for the benchmark submission service in perfeng/service.
//
// Time is injected wherever a test needs to reason about deadlines or
// breaker cooldowns, and fault plans are seeded, so everything here is
// deterministic — no wall-clock races decide a verdict.
#include "perfeng/service/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/resilience/fault_injection.hpp"

namespace {

using pe::service::BenchmarkService;
using pe::service::CircuitBreaker;
using pe::service::ServiceConfig;
using pe::service::ShedReason;
using pe::service::SubmissionRequest;
using pe::service::SubmitResult;
using pe::service::TerminalState;

/// A tiny kernel that does real, optimizer-proof work.
std::function<void()> tiny_kernel() {
  return [] {
    double x = 1.0;
    for (int i = 0; i < 64; ++i) x += 1.0 / (1.0 + x);
    pe::do_not_optimize(x);
  };
}

/// Single-worker service with a hand-advanced clock: submissions retire
/// in admission order and the test controls every timestamp.
struct Harness {
  explicit Harness(ServiceConfig config = {})
      : time(std::make_shared<std::atomic<double>>(0.0)) {
    config.workers = 1;
    config.now = [t = time] { return t->load(); };
    service = std::make_unique<BenchmarkService>(std::move(config));
  }

  void advance(double seconds) {
    double old = time->load();
    while (!time->compare_exchange_weak(old, old + seconds)) {
    }
  }

  SubmitResult submit(const std::string& tenant, const std::string& key,
                      std::function<void()> kernel = tiny_kernel(),
                      double deadline = 0.0) {
    SubmissionRequest request;
    request.tenant = tenant;
    request.workload_key = key;
    request.kernel = std::move(kernel);
    request.deadline_seconds = deadline;
    return service->submit(std::move(request));
  }

  std::shared_ptr<std::atomic<double>> time;
  std::unique_ptr<BenchmarkService> service;
};

TEST(Service, CompletesASimpleSubmission) {
  Harness h;
  const SubmitResult r = h.submit("alice", "tiny");
  EXPECT_TRUE(r.admitted);
  EXPECT_EQ(r.ticket, 1u);
  const auto outcome = r.outcome.get();
  EXPECT_EQ(outcome.state, TerminalState::kCompleted);
  EXPECT_GT(outcome.measurement.seconds.size(), 0u);
  const auto stats = h.service->stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.workloads_run, 1u);
}

TEST(Service, RejectsMalformedSubmissions) {
  Harness h;
  SubmissionRequest no_tenant;
  no_tenant.workload_key = "k";
  no_tenant.kernel = tiny_kernel();
  EXPECT_THROW((void)h.service->submit(std::move(no_tenant)), pe::Error);
  SubmissionRequest no_kernel;
  no_kernel.tenant = "t";
  no_kernel.workload_key = "k";
  EXPECT_THROW((void)h.service->submit(std::move(no_kernel)), pe::Error);
  SubmissionRequest bad_deadline;
  bad_deadline.tenant = "t";
  bad_deadline.workload_key = "k";
  bad_deadline.kernel = tiny_kernel();
  bad_deadline.deadline_seconds = -1.0;
  EXPECT_THROW((void)h.service->submit(std::move(bad_deadline)), pe::Error);
}

TEST(Service, CacheHitServesWithoutRerunning) {
  Harness h;
  auto runs = std::make_shared<std::atomic<int>>(0);
  const auto counting = [runs] {
    runs->fetch_add(1);
    pe::do_not_optimize(runs);
  };
  const SubmitResult first = h.submit("alice", "counted", counting);
  ASSERT_EQ(first.outcome.get().state, TerminalState::kCompleted);
  const int invocations_after_first = runs->load();
  ASSERT_GT(invocations_after_first, 0);

  // Identical key (even from another tenant): served from cache, the
  // kernel is never invoked again.
  const SubmitResult second = h.submit("bob", "counted", counting);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_FALSE(second.admitted);
  EXPECT_EQ(second.outcome.get().state, TerminalState::kCompleted);
  EXPECT_EQ(runs->load(), invocations_after_first);
  const auto stats = h.service->stats();
  EXPECT_EQ(stats.workloads_run, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Service, DeadlineExpiredInQueueShedsWithoutRunning) {
  Harness h;
  // Occupy the single worker with a kernel that blocks until released.
  auto release = std::make_shared<std::atomic<bool>>(false);
  const auto blocking = [release] {
    while (!release->load()) std::this_thread::yield();
  };
  const SubmitResult blocker = h.submit("blocker", "block", blocking);
  ASSERT_TRUE(blocker.admitted);
  // Wait until the blocker is actually running, so the next submission
  // stays queued until we say otherwise.
  while (h.service->stats().workloads_run == 0) std::this_thread::yield();

  auto runs = std::make_shared<std::atomic<int>>(0);
  const auto counting = [runs] { runs->fetch_add(1); };
  const SubmitResult doomed =
      h.submit("alice", "doomed", counting, /*deadline=*/5.0);
  ASSERT_TRUE(doomed.admitted);

  h.advance(10.0);  // the deadline expires while the work is queued
  release->store(true);

  const auto outcome = doomed.outcome.get();
  EXPECT_EQ(outcome.state, TerminalState::kShed);
  EXPECT_EQ(outcome.shed_reason, ShedReason::kDeadlineExpired);
  EXPECT_GE(outcome.queue_seconds, 5.0);
  EXPECT_EQ(runs->load(), 0);  // expired work is never run
  EXPECT_EQ(blocker.outcome.get().state, TerminalState::kCompleted);
  EXPECT_EQ(h.service->stats().shed_deadline, 1u);
}

TEST(Service, TimedOutRunStopsCallingItsKernel) {
  // The default design (2 warm-ups, 10 repetitions) would call a 20 ms
  // kernel 13 times; the 50 ms budget is spent after the third call, and
  // the run stops there, on the worker's thread. No timing race decides
  // the verdict: thirteen 20 ms calls cannot fit in 50 ms.
  ServiceConfig config;
  config.measurement = pe::MeasurementConfig{};
  Harness h(std::move(config));
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto slow = [calls] {
    calls->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  const SubmitResult r = h.submit("alice", "slow", slow, /*deadline=*/0.05);
  ASSERT_TRUE(r.admitted);
  const auto outcome = r.outcome.get();
  EXPECT_EQ(outcome.state, TerminalState::kFailed);
  EXPECT_EQ(outcome.failure_kind, pe::resilience::FailureKind::kTimeout);
  const int at_resolve = calls->load();
  EXPECT_GT(at_resolve, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(calls->load(), at_resolve);
}

TEST(Service, TenantFloodIsShedWhileOthersAreServed) {
  ServiceConfig config;
  config.queue.capacity = 16;
  config.queue.tenant_capacity = 2;
  Harness h(std::move(config));
  // Hold the worker so admission verdicts are decided with a full queue.
  auto release = std::make_shared<std::atomic<bool>>(false);
  const auto blocking = [release] {
    while (!release->load()) std::this_thread::yield();
  };
  ASSERT_TRUE(h.submit("blocker", "block", blocking).admitted);
  while (h.service->stats().workloads_run == 0) std::this_thread::yield();

  // The flooding tenant gets its fair share and not one slot more...
  const SubmitResult f1 = h.submit("flood", "f1");
  const SubmitResult f2 = h.submit("flood", "f2");
  const SubmitResult f3 = h.submit("flood", "f3");
  EXPECT_TRUE(f1.admitted);
  EXPECT_TRUE(f2.admitted);
  EXPECT_FALSE(f3.admitted);
  EXPECT_EQ(f3.shed_reason, ShedReason::kTenantOverShare);
  EXPECT_EQ(f3.outcome.get().state, TerminalState::kShed);
  // ...while a polite tenant is still admitted.
  const SubmitResult polite = h.submit("polite", "p1");
  EXPECT_TRUE(polite.admitted);

  release->store(true);
  EXPECT_EQ(polite.outcome.get().state, TerminalState::kCompleted);
  EXPECT_EQ(f1.outcome.get().state, TerminalState::kCompleted);
  EXPECT_EQ(f2.outcome.get().state, TerminalState::kCompleted);
  const auto stats = h.service->stats();
  EXPECT_EQ(stats.shed_tenant_share, 1u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.shed_at_admission());
}

TEST(Service, BreakerTripsShedsAndRecovers) {
  ServiceConfig config;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown.initial_backoff_seconds = 1.0;
  Harness h(std::move(config));
  const auto faulty = [] { throw std::runtime_error("kernel exploded"); };

  // Two consecutive failures trip alice's breaker...
  EXPECT_EQ(h.submit("alice", "bad1", faulty).outcome.get().state,
            TerminalState::kFailed);
  EXPECT_EQ(h.submit("alice", "bad2", faulty).outcome.get().state,
            TerminalState::kFailed);
  EXPECT_EQ(h.service->breaker_state("alice"),
            CircuitBreaker::State::kOpen);
  // ...so her next submission is shed at the door, unrun.
  const SubmitResult shed = h.submit("alice", "bad3", faulty);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.shed_reason, ShedReason::kBreakerOpen);
  EXPECT_EQ(shed.outcome.get().shed_reason, ShedReason::kBreakerOpen);
  // Other tenants are isolated from alice's breaker.
  EXPECT_EQ(h.submit("bob", "good", tiny_kernel()).outcome.get().state,
            TerminalState::kCompleted);

  // After the cooldown a half-open probe that succeeds re-closes it.
  h.advance(1.5);
  const SubmitResult probe = h.submit("alice", "good2", tiny_kernel());
  EXPECT_TRUE(probe.admitted);
  EXPECT_EQ(probe.outcome.get().state, TerminalState::kCompleted);
  EXPECT_EQ(h.service->breaker_state("alice"),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(h.service->stats().shed_breaker, 1u);
}

TEST(Service, StopShedsQueuedWorkAndRefusesNewWork) {
  Harness h;
  auto release = std::make_shared<std::atomic<bool>>(false);
  const auto blocking = [release] {
    while (!release->load()) std::this_thread::yield();
  };
  const SubmitResult running = h.submit("t", "block", blocking);
  while (h.service->stats().workloads_run == 0) std::this_thread::yield();
  const SubmitResult queued = h.submit("t", "queued");

  h.service->stop();
  const SubmitResult late = h.submit("t", "late");
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.shed_reason, ShedReason::kShutdown);

  release->store(true);
  // In-flight work finishes; queued work is shed with a reason, not lost.
  EXPECT_EQ(running.outcome.get().state, TerminalState::kCompleted);
  const auto queued_outcome = queued.outcome.get();
  EXPECT_EQ(queued_outcome.state, TerminalState::kShed);
  EXPECT_EQ(queued_outcome.shed_reason, ShedReason::kShutdown);
  h.service.reset();  // destructor path: no hangs, no broken promises
}

/// One seeded campaign: N submissions under admission and dequeue faults,
/// returning the terminal state sequence in submission order.
std::vector<std::string> campaign(std::uint64_t seed) {
  pe::resilience::FaultPlan plan;
  plan.seed = seed;
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceAdmit),
       .probability = 0.25});
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceDequeue),
       .probability = 0.25});
  pe::resilience::ScopedFaultInjection scope(std::move(plan));

  ServiceConfig config;
  // A huge threshold keeps the breaker out of this test's way; the
  // breaker path has its own deterministic tests.
  config.breaker.failure_threshold = 1000000;
  Harness h(std::move(config));
  std::vector<SubmitResult> results;
  for (int i = 0; i < 40; ++i) {
    results.push_back(h.submit("t", "w" + std::to_string(i)));
  }
  std::vector<std::string> states;
  for (const SubmitResult& r : results) {
    const auto outcome = r.outcome.get();
    states.push_back(std::string(to_string(outcome.state)) + "/" +
                     std::string(to_string(outcome.shed_reason)));
  }
  h.service.reset();  // join drains before the injection scope dies
  return states;
}

TEST(Service, SameSeedSameTerminalStateSequence) {
  // The chaos contract, end to end: the service's fault sites are visited
  // exactly once per submission in submission order (single worker), so a
  // seeded plan reproduces the same terminal-state sequence bit for bit.
  const auto a = campaign(17);
  const auto b = campaign(17);
  EXPECT_EQ(a, b);
  const auto c = campaign(18);
  EXPECT_NE(a, c);  // a different seed attacks a different subset
  // Both fault kinds actually appeared (p = 0.25 over 40 submissions).
  EXPECT_NE(std::count(a.begin(), a.end(), "shed/admission-fault"), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), "failed/none"), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), "completed/none"), 0);
}

}  // namespace
