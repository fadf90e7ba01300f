#include "perfeng/service/service.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "perfeng/common/fault_hook.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/resilience/fault_injection.hpp"
#include "perfeng/resilience/measurement_error.hpp"

namespace pe::service {

using resilience::FaultInjected;
using resilience::MeasurementError;

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BenchmarkService::BenchmarkService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_entries),
      queue_(config_.queue) {
  validate(config_.breaker);
  // Constructing a runner validates the measurement design now, not on
  // the first drain (where a throw would break the terminal invariant).
  (void)BenchmarkRunner(config_.measurement);
  if (!config_.now) config_.now = &steady_seconds;
  if (config_.calibration_hash.empty())
    config_.calibration_hash = "uncalibrated";
  pool_ = std::make_unique<ThreadPool>(
      config_.workers != 0 ? config_.workers
                           : ThreadPool::default_thread_count());
}

BenchmarkService::BenchmarkService(ServiceConfig config,
                                   const machine::Machine& m)
    : BenchmarkService([&] {
        config.calibration_hash = m.calibration_hash();
        return std::move(config);
      }()) {}

BenchmarkService::~BenchmarkService() {
  stop();
  // Joining the pool retires every pending drain task; each queued
  // submission is shed (kShutdown) by its drain, in-flight runs finish.
  pool_.reset();
  // Defensive sweep: a drain task that was never enqueued (pool submit
  // threw) leaves its submission queued. Shed it here — the invariant
  // is "exactly one terminal state", not "exactly one on the fast path".
  for (std::unique_ptr<Task>& task : queue_.drain()) {
    Outcome o;
    o.state = TerminalState::kShed;
    o.shed_reason = ShedReason::kShutdown;
    resolve(*task, std::move(o));
  }
}

void BenchmarkService::stop() { stopping_.store(true); }

CircuitBreaker& BenchmarkService::breaker_for(const std::string& tenant) {
  std::lock_guard lock(breakers_mu_);
  auto it = breakers_.find(tenant);
  if (it == breakers_.end()) {
    CircuitBreakerConfig cfg = config_.breaker;
    // Decorrelate tenants: each breaker draws its cooldown jitter from
    // its own seeded stream, so tripped tenants do not probe in lockstep.
    cfg.cooldown.jitter_seed ^= fnv1a(tenant);
    it = breakers_
             .emplace(tenant, std::make_unique<CircuitBreaker>(
                                  cfg, config_.now))
             .first;
  }
  return *it->second;
}

CircuitBreaker::State BenchmarkService::breaker_state(
    const std::string& tenant) {
  return breaker_for(tenant).state();
}

ServiceStats BenchmarkService::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

SubmitResult BenchmarkService::submit(SubmissionRequest request) {
  PE_REQUIRE(!request.tenant.empty(), "submission needs a tenant");
  PE_REQUIRE(!request.workload_key.empty(),
             "submission needs a workload key");
  PE_REQUIRE(static_cast<bool>(request.kernel), "null kernel");
  PE_REQUIRE(request.deadline_seconds >= 0.0,
             "deadline must be non-negative");

  SubmitResult result;
  result.ticket = tickets_.fetch_add(1) + 1;
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.submitted;
  }

  const auto shed_at_door = [&](ShedReason reason,
                                std::uint64_t ServiceStats::* counter) {
    {
      std::lock_guard lock(stats_mu_);
      ++(stats_.*counter);
    }
    result.shed_reason = reason;
    result.outcome = resolved_shed(reason);
    return result;
  };

  // The admission path hosts its own fault site: an injected fault here
  // must surface as explicit backpressure, never as a lost submission.
  try {
    fault_point(fault_sites::kServiceAdmit);
  } catch (const FaultInjected&) {
    return shed_at_door(ShedReason::kAdmissionFault,
                        &ServiceStats::shed_admission_fault);
  }

  if (stopping_.load()) {
    return shed_at_door(ShedReason::kShutdown,
                        &ServiceStats::shed_shutdown_door);
  }

  CircuitBreaker& breaker = breaker_for(request.tenant);
  if (!breaker.allow()) {
    return shed_at_door(ShedReason::kBreakerOpen,
                        &ServiceStats::shed_breaker);
  }

  const ResultCache::Lookup look =
      cache_.acquire(config_.calibration_hash, request.workload_key);
  switch (look.role) {
    case ResultCache::Role::kHit:
      breaker.on_abandoned();  // terminal without a run: no evidence
      result.cache_hit = true;
      result.outcome = look.future;
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.cache_hits;
      }
      return result;
    case ResultCache::Role::kJoined:
      breaker.on_abandoned();  // the leader's run carries the evidence
      result.coalesced = true;
      result.outcome = look.future;
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.coalesced;
      }
      return result;
    case ResultCache::Role::kLead:
    case ResultCache::Role::kBypass:
      break;  // this submission runs (or sheds trying)
  }
  const bool cached = look.role == ResultCache::Role::kLead;

  auto task = std::make_unique<Task>();
  task->ticket = result.ticket;
  task->admit_time = now();
  task->cached = cached;
  task->request = std::move(request);
  const std::string tenant = task->request.tenant;
  const std::string key = task->request.workload_key;
  const std::shared_future<Outcome> outcome_future =
      cached ? look.future : task->own_promise.get_future().share();

  const AdmissionVerdict verdict = queue_.try_push(tenant, task);
  if (verdict != AdmissionVerdict::kAdmitted) {
    breaker.on_abandoned();
    const ShedReason reason = verdict == AdmissionVerdict::kQueueFull
                                  ? ShedReason::kQueueFull
                                  : ShedReason::kTenantOverShare;
    Outcome o;
    o.state = TerminalState::kShed;
    o.shed_reason = reason;
    if (cached) {
      // Joiners that slipped in between acquire and push share the shed.
      cache_.complete(config_.calibration_hash, key, o);
    }
    {
      std::lock_guard lock(stats_mu_);
      ++(verdict == AdmissionVerdict::kQueueFull
             ? stats_.shed_queue_full
             : stats_.shed_tenant_share);
    }
    result.shed_reason = reason;
    result.outcome = outcome_future;
    if (!cached) task->own_promise.set_value(std::move(o));
    return result;
  }

  {
    std::lock_guard lock(stats_mu_);
    ++stats_.admitted;
  }
  result.admitted = true;
  result.outcome = outcome_future;
  // One drain task per admission: the pairing that proves every queued
  // submission is retired exactly once. If the pool refuses (allocation
  // failure on shutdown paths), the destructor's defensive sweep sheds
  // the orphaned submission instead.
  try {
    (void)pool_->submit([this] { drain_one(); });
  } catch (...) {
    // Queued but drainless; covered by the destructor sweep.
  }
  return result;
}

void BenchmarkService::drain_one() {
  std::optional<std::unique_ptr<Task>> popped = queue_.try_pop();
  if (!popped.has_value() || *popped == nullptr) return;
  Task& task = **popped;
  const double queue_seconds = now() - task.admit_time;

  if (stopping_.load()) {
    Outcome o;
    o.state = TerminalState::kShed;
    o.shed_reason = ShedReason::kShutdown;
    o.queue_seconds = queue_seconds;
    resolve(task, std::move(o));
    return;
  }

  // The dequeue path hosts its own fault site. It sits *after* the pop:
  // a fault before the pop would burn this drain without retiring a
  // submission and break the one-drain-one-retirement pairing.
  try {
    fault_point(fault_sites::kServiceDequeue);
  } catch (const FaultInjected& e) {
    Outcome o;
    o.state = TerminalState::kFailed;
    o.error = e.what();
    o.failure_kind = resilience::FailureKind::kFault;
    o.queue_seconds = queue_seconds;
    resolve(task, std::move(o));
    return;
  }

  // Deadline check at dequeue: work that expired while queued is shed,
  // not run — running it would burn a server on a result nobody can use.
  if (task.request.deadline_seconds > 0.0 &&
      queue_seconds >= task.request.deadline_seconds) {
    Outcome o;
    o.state = TerminalState::kShed;
    o.shed_reason = ShedReason::kDeadlineExpired;
    o.queue_seconds = queue_seconds;
    resolve(task, std::move(o));
    return;
  }

  resolve(task, execute(task, queue_seconds));
}

Outcome BenchmarkService::execute(Task& task, double queue_seconds) {
  Outcome o;
  o.queue_seconds = queue_seconds;
  const double run_start = now();

  MeasurementConfig cfg = config_.measurement;
  if (task.request.deadline_seconds > 0.0) {
    // What survives of the end-to-end budget bounds the run: the
    // existing watchdog (run_with_deadline inside the runner) enforces
    // it, so a kernel that outlives its budget fails with a structured
    // timeout instead of hanging a server.
    cfg.deadline_seconds = task.request.deadline_seconds - queue_seconds;
  }
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.workloads_run;
  }
  try {
    const BenchmarkRunner runner(cfg);
    o.measurement = runner.run(task.request.workload_key,
                               task.request.kernel);
    o.state = TerminalState::kCompleted;
  } catch (const MeasurementError& e) {
    o.state = TerminalState::kFailed;
    o.error = e.what();
    o.failure_kind = e.kind();
  } catch (const std::exception& e) {
    o.state = TerminalState::kFailed;
    o.error = e.what();
    o.failure_kind = resilience::FailureKind::kFault;
  } catch (...) {
    o.state = TerminalState::kFailed;
    o.error = "non-exception failure";
    o.failure_kind = resilience::FailureKind::kFault;
  }
  o.run_seconds = now() - run_start;
  return o;
}

void BenchmarkService::resolve(Task& task, Outcome outcome) {
  CircuitBreaker& breaker = breaker_for(task.request.tenant);
  {
    std::lock_guard lock(stats_mu_);
    switch (outcome.state) {
      case TerminalState::kCompleted: ++stats_.completed; break;
      case TerminalState::kFailed: ++stats_.failed; break;
      case TerminalState::kShed:
        ++(outcome.shed_reason == ShedReason::kDeadlineExpired
               ? stats_.shed_deadline
               : stats_.shed_shutdown_queued);
        break;
    }
  }
  switch (outcome.state) {
    case TerminalState::kCompleted: breaker.on_success(); break;
    case TerminalState::kFailed: breaker.on_failure(); break;
    case TerminalState::kShed: breaker.on_abandoned(); break;
  }
  if (task.cached) {
    cache_.complete(config_.calibration_hash, task.request.workload_key,
                    outcome);
  } else {
    task.own_promise.set_value(std::move(outcome));
  }
}

}  // namespace pe::service
