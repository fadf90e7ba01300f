#pragma once

/// \file service.hpp
/// `BenchmarkService`: a fault-tolerant, overload-safe submission
/// pipeline over the work-stealing thread pool.
///
/// The course's batch artifacts (BenchmarkRunner, suites, experiments)
/// assume a patient caller; a benchmark-as-a-service pipeline has
/// impatient, concurrent, occasionally abusive ones. The service layers
/// four protections over the pool, in admission order:
///
///  1. **Circuit breaker** (per tenant): a tenant with too many
///     consecutive failures is shed at the door until a half-open probe
///     proves recovery (circuit_breaker.hpp).
///  2. **Result cache + single-flight** (per machine-hash × workload
///     key): completed results are served without re-running; concurrent
///     identical submissions coalesce onto one run (result_cache.hpp).
///  3. **Bounded admission queue** (global + per-tenant fair share):
///     overload is answered with an explicit `Shed{reason}`, never with
///     an unbounded queue or a blocked caller (admission_queue.hpp).
///  4. **Deadline propagation**: each submission's remaining budget is
///     re-checked at dequeue — work that expired while queued is shed
///     unrun — and what's left flows into
///     `MeasurementConfig::deadline_seconds`, so the runner stops the run
///     within one kernel call (or one timed batch) of that budget, on the
///     worker's own thread.
///
/// Execution is event-driven: each admitted submission enqueues one
/// drain task on the pool, and each drain task retires exactly one
/// queued submission (not necessarily "its own" — dequeue is tenant
/// round-robin). Drains never block, so the service composes with other
/// pool users, and the one-drain-per-admission pairing is what makes the
/// terminal-state invariant (every submission reaches exactly one of
/// Completed/Failed/Shed) provable rather than probabilistic. Runs pass
/// the scheduler's `pe::observe` trace sites like any other pool work, so
/// a `ScopedTrace` around a load campaign shows saturation in the
/// submit->start latency histograms. See docs/service.md.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "perfeng/machine/machine.hpp"
#include "perfeng/measure/benchmark_runner.hpp"
#include "perfeng/parallel/thread_pool.hpp"
#include "perfeng/service/admission_queue.hpp"
#include "perfeng/service/circuit_breaker.hpp"
#include "perfeng/service/result_cache.hpp"
#include "perfeng/service/submission.hpp"

namespace pe::service {

/// Service tuning.
struct ServiceConfig {
  std::size_t workers = 0;  ///< pool size; 0 = hardware concurrency
  AdmissionQueueConfig queue;
  CircuitBreakerConfig breaker;
  std::size_t cache_entries = 1024;  ///< done-cache capacity
  /// Base measurement design for every run; `deadline_seconds` is
  /// overridden per submission by its remaining deadline budget.
  MeasurementConfig measurement = [] {
    MeasurementConfig cfg;
    cfg.warmup_runs = 0;
    cfg.repetitions = 3;
    cfg.min_batch_seconds = 1e-4;
    return cfg;
  }();
  /// Machine provenance half of every cache key; empty = "uncalibrated"
  /// (still cached, just not comparable across machines).
  std::string calibration_hash;
  /// Monotonic-seconds clock for deadlines and breaker cooldowns;
  /// empty = steady_clock. Tests inject hand-advanced clocks here.
  CircuitBreaker::Clock now;
};

/// Monotone counters of everything the service decided. Two accounting
/// identities hold at every instant (and the load generator's `--check`
/// mode asserts them after a drain):
///   submitted == admitted + coalesced + cache_hits + shed_at_admission()
///   admitted  == completed + failed + shed_deadline + shed_shutdown_queued
///                + (still queued or in flight)
struct ServiceStats {
  std::uint64_t submitted = 0;      ///< submit() calls
  std::uint64_t admitted = 0;       ///< entered the queue as leaders
  std::uint64_t coalesced = 0;      ///< joined an in-flight identical run
  std::uint64_t cache_hits = 0;     ///< served from the done cache
  // Shed before queueing, by reason:
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_tenant_share = 0;
  std::uint64_t shed_breaker = 0;
  std::uint64_t shed_admission_fault = 0;
  std::uint64_t shed_shutdown_door = 0;    ///< submit() after stop()
  // Shed after queueing, by reason:
  std::uint64_t shed_deadline = 0;         ///< budget expired while queued
  std::uint64_t shed_shutdown_queued = 0;  ///< queued when stop() hit
  std::uint64_t completed = 0;      ///< runs that measured
  std::uint64_t failed = 0;         ///< runs that threw
  std::uint64_t workloads_run = 0;  ///< actual BenchmarkRunner invocations

  [[nodiscard]] std::uint64_t shed_at_admission() const {
    return shed_queue_full + shed_tenant_share + shed_breaker +
           shed_admission_fault + shed_shutdown_door;
  }
  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_at_admission() + shed_deadline + shed_shutdown_queued;
  }
  /// Terminal outcomes accounted so far; equals `submitted` once the
  /// queue has drained (coalesced/cache-hit submissions terminate with
  /// the outcome they share).
  [[nodiscard]] std::uint64_t terminal() const {
    return completed + failed + cache_hits + coalesced + shed_total();
  }
};

/// The benchmark submission service. Thread-safe: `submit` may be called
/// from any thread, including from pool tasks of *other* pools.
class BenchmarkService {
 public:
  explicit BenchmarkService(ServiceConfig config = {});

  /// Convenience: take the cache-key hash from a machine description.
  BenchmarkService(ServiceConfig config, const machine::Machine& m);

  BenchmarkService(const BenchmarkService&) = delete;
  BenchmarkService& operator=(const BenchmarkService&) = delete;

  /// Stops admission, sheds what is still queued, joins in-flight runs.
  ~BenchmarkService();

  /// Submit a workload. Returns synchronously with either an admission
  /// decision or a coalesced/cached result; `SubmitResult::outcome` is
  /// always a valid future that resolves to the submission's single
  /// terminal state.
  [[nodiscard]] SubmitResult submit(SubmissionRequest request);

  /// Stop accepting work. Already-queued submissions are shed
  /// (kShutdown) as their drain tasks reach them; in-flight runs finish.
  /// Idempotent. The destructor calls it and then joins the pool.
  void stop();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] ResultCache::Stats cache_stats() const {
    return cache_.stats();
  }

  /// Breaker state of one tenant (kClosed for tenants never seen).
  [[nodiscard]] CircuitBreaker::State breaker_state(
      const std::string& tenant);

  /// Depth of the admission queue right now.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One queued submission: everything a drain task needs to retire it.
  struct Task {
    SubmissionRequest request;
    std::uint64_t ticket = 0;
    double admit_time = 0.0;     ///< service clock at admission
    bool cached = false;         ///< leader of a cache entry (vs bypass)
    /// Bypass tasks resolve their own promise; cached tasks resolve
    /// through ResultCache::complete.
    std::promise<Outcome> own_promise;
  };

  /// Retire exactly one queued submission (invoked once per admission).
  void drain_one();

  /// Run the task's workload under its remaining deadline and report the
  /// terminal outcome; never throws.
  [[nodiscard]] Outcome execute(Task& task, double queue_seconds);

  /// Deliver a task's terminal outcome (promise + stats + breaker).
  void resolve(Task& task, Outcome outcome);

  [[nodiscard]] CircuitBreaker& breaker_for(const std::string& tenant);

  [[nodiscard]] double now() const { return config_.now(); }

  ServiceConfig config_;
  ResultCache cache_;
  AdmissionQueue<std::unique_ptr<Task>> queue_;
  mutable std::mutex breakers_mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  std::atomic<std::uint64_t> tickets_{0};
  std::atomic<bool> stopping_{false};
  /// Last member: its destructor joins the drain tasks, which touch
  /// everything above.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pe::service
