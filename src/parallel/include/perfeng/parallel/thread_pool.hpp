#pragma once

/// \file thread_pool.hpp
/// The toolbox's shared-memory parallel substrate: a work-stealing pool.
///
/// The course targets OpenMP/CUDA; this repository substitutes a from-scratch
/// scheduler so that every parallel kernel, scaling experiment, and
/// load-imbalance pattern runs on any host with only the standard library.
/// The original substrate was a single mutex-guarded FIFO queue, which meant
/// scaling experiments measured global-lock handoffs as much as the kernel
/// under study. The rebuilt pool is Cilk-style (Blumofe & Leiserson): each
/// worker owns a ring-buffer deque — the owner pushes and pops LIFO at the
/// bottom, thieves steal FIFO at the top under a light per-deque lock — with
/// randomized victim selection, exponential backoff, and a condition-variable
/// park for idle workers.
///
/// Two submission paths share the substrate:
///  - `submit` keeps the classic task-per-future contract (one heap-allocated
///    `packaged_task` per task). Tasks submitted from a worker thread go to
///    that worker's own deque (LIFO, cache-warm); external submissions land
///    in a shared inbox.
///  - `bulk_broadcast`/`bulk_purge` back the low-overhead `parallel_for`
///    fast path in parallel_for.hpp: one POD job record is replicated into
///    every worker deque (no heap allocation, no futures) and the submitting
///    thread participates in execution instead of blocking in `future::get`.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perfeng/common/trace_hook.hpp"

namespace pe {

/// Work-stealing worker pool.
///
/// Thread-safe: `submit`, `bulk_broadcast`, and `bulk_purge` may be called
/// concurrently from any thread, including from inside tasks. A task must
/// not block on work that can only run on the pool it occupies a lane of
/// (the bulk path never does: the submitting thread executes chunks itself
/// and reclaims unstarted job copies, so nested `parallel_for` cannot
/// deadlock even when every other worker is busy).
///
/// Exception-safe: a task that throws delivers its exception through the
/// submitter's future (or, on the bulk path, through the loop's shared
/// record) and never takes down the worker thread; anything that still
/// escapes task invocation itself is absorbed and counted
/// (`escaped_exceptions()`) rather than terminating the process. The worker
/// loop also hosts the `pool.worker` fault site: injected worker faults are
/// absorbed and counted (`absorbed_faults()`) without dropping the task, so
/// chaos runs exercise worker recovery without wedging futures or the bulk
/// completion latch.
class ThreadPool {
 public:
  /// One schedulable unit. POD on purpose: bulk jobs are replicated by value
  /// into worker deques with no heap allocation. `fn` receives `arg`, the
  /// executing lane (worker index, or `size()` when run by an external
  /// participant thread), and the pin of the trace hook that the worker
  /// holds for this job copy (null when no tracer is installed).
  struct Job {
    void (*fn)(void* arg, std::size_t lane, TraceHook* trace) = nullptr;
    void* arg = nullptr;

    explicit operator bool() const noexcept { return fn != nullptr; }
  };

  /// Create a pool with `threads` workers (>= 1). Defaults to the hardware
  /// concurrency, with a floor of 1.
  explicit ThreadPool(std::size_t threads = default_thread_count());

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future carries the task's result or
  /// exception. Tasks submitted from a worker of this pool go to that
  /// worker's own deque (LIFO); external submissions go to the shared inbox.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto* task = new std::packaged_task<R()>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    try {
      enqueue(Job{&run_packaged<R>, task});
    } catch (...) {
      delete task;
      throw;
    }
    return result;
  }

  /// Run `fn(worker_index)` once on each of the pool's threads and wait.
  /// Used by microbenchmarks that need one pinned activity per worker; the
  /// per-worker jobs go to non-stealable pinned lanes, so each of the n
  /// activities is guaranteed its own thread. Waits for *every* lane to
  /// finish even when some throw (so `fn` is never referenced after
  /// return), then rethrows the first exception.
  void run_on_all(const std::function<void(std::size_t)>& fn);

  // --- bulk-submission fast path (used by parallel_for) -------------------

  /// Replicate `job` into every worker deque and wake the workers. Returns
  /// the number of copies pushed (== size()). No heap allocation. The
  /// caller owns `job.arg` and must keep it alive until every copy has been
  /// retired: executed to completion, or reclaimed with `bulk_purge`.
  std::size_t bulk_broadcast(Job job);

  /// Remove every not-yet-started copy of the job identified by `arg` from
  /// the worker deques and the inbox; returns how many were removed. After
  /// `bulk_purge(arg)` returns, copies are either retired-by-purge (counted
  /// here) or were already claimed by a worker that will run them to
  /// completion — so `purged + completed == pushed` is the safe-to-free
  /// condition for `arg`.
  std::size_t bulk_purge(const void* arg);

  /// Lane index of the calling thread: the worker index when called from a
  /// worker of this pool, `size()` otherwise. Lane-indexed scratch arrays
  /// (accumulators, private tables, pack buffers) should be sized
  /// `size() + 1` so external participants get the last slot.
  [[nodiscard]] std::size_t this_lane() const noexcept;

  /// Default worker count: hardware_concurrency with a floor of 1.
  static std::size_t default_thread_count();

  /// Exceptions that escaped a task invocation (not the normal
  /// through-the-future path) and were absorbed by a worker.
  [[nodiscard]] std::size_t escaped_exceptions() const noexcept {
    return escaped_exceptions_.load(std::memory_order_relaxed);
  }

  /// Injected `pool.worker` faults absorbed by the worker loop.
  [[nodiscard]] std::size_t absorbed_faults() const noexcept {
    return absorbed_faults_.load(std::memory_order_relaxed);
  }

  /// Successful steals (a worker executed a job taken from another worker's
  /// deque). Exposed for the scheduler's own tests and microbenchmarks.
  [[nodiscard]] std::size_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  /// Ring-buffer deque under a light lock: the owner pushes/pops at the
  /// bottom (LIFO), thieves steal from the top (FIFO). The ring grows
  /// geometrically, so steady-state pushes never allocate.
  struct Deque {
    std::mutex mu;
    std::vector<Job> ring;     // capacity is a power of two
    std::size_t top = 0;       // next steal slot
    std::size_t bottom = 0;    // next push slot; bottom - top == count

    void push_bottom_locked(Job job);
    [[nodiscard]] Job pop_bottom(std::size_t lane);
    [[nodiscard]] Job steal_top(std::size_t lane);
    std::size_t purge_locked(const void* arg);
  };

  /// Per-worker state. The pinned queue backs run_on_all and is never
  /// stolen from.
  struct Worker {
    Deque deque;
    std::mutex pinned_mu;
    std::deque<Job> pinned;
    std::thread thread;
  };

  template <typename R>
  static void run_packaged(void* arg, std::size_t /*lane*/,
                           TraceHook* /*trace*/) {
    std::unique_ptr<std::packaged_task<R()>> task(
        static_cast<std::packaged_task<R()>*>(arg));
    (*task)();
  }

  void worker_loop(std::size_t index);
  [[nodiscard]] Job find_work(std::size_t index);
  void enqueue(Job job);
  void enqueue_pinned(std::size_t worker, Job job);
  void announce(std::size_t jobs) noexcept;
  void run_job(Job job) noexcept;
  void ensure_open() const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::deque<Job> inbox_;          // external submissions, guarded by mutex_
  mutable std::mutex mutex_;       // inbox + park/closing coordination
  std::condition_variable cv_;
  std::atomic<std::size_t> pending_{0};   // queued (not yet started) jobs
  std::atomic<std::size_t> sleepers_{0};  // workers parked on cv_
  std::atomic<bool> closing_{false};
  std::atomic<std::size_t> escaped_exceptions_{0};
  std::atomic<std::size_t> absorbed_faults_{0};
  std::atomic<std::size_t> steals_{0};
};

}  // namespace pe
