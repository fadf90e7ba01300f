#pragma once

/// \file fault_hook.hpp
/// Process-wide fault-injection hook points.
///
/// Real measurement campaigns fail partway: counter backends disappear,
/// kernels throw, input files are garbage. To test those paths
/// deterministically, the toolbox's failure-prone layers call
/// `fault_point(site)` (and `fault_value(site, v)` for data corruption) at
/// named sites. By default these are no-ops costing one relaxed atomic
/// load; when a `FaultHook` is installed — normally a
/// `pe::resilience::FaultInjector` armed with a seeded `FaultPlan` — the
/// hook may throw, delay, or corrupt the value, exercising every recovery
/// path on demand. The hook lives here (not in perfeng_resilience) so that
/// low-level layers like the CSV reader and the thread pool can host sites
/// without depending on the resilience library. Install and removal go
/// through the hook spine (hook.hpp): each site pins the hook for one call.

#include <string_view>
#include <vector>

#include "perfeng/common/hook.hpp"

namespace pe {

/// Interface a fault injector implements to intercept hook points.
/// Implementations must be thread-safe: sites fire from worker threads.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Called when execution passes the named site. May throw `pe::Error`
  /// (fault kind: throw) or sleep (fault kind: delay).
  virtual void at(std::string_view site) = 0;

  /// Called where a measured value can be corrupted; returns the value to
  /// use (possibly scaled/poisoned, fault kind: corrupt-value).
  virtual double corrupt(std::string_view site, double value) = 0;
};

/// Canonical fault-site names (see docs/robustness.md for the catalog).
namespace fault_sites {
inline constexpr std::string_view kCountersRead = "counters.read";
inline constexpr std::string_view kPoolWorker = "pool.worker";
inline constexpr std::string_view kKernelCall = "kernel.call";
inline constexpr std::string_view kIoCsv = "io.csv";
inline constexpr std::string_view kIoMatrixMarket = "io.matrix_market";
inline constexpr std::string_view kServiceAdmit = "service.admit";
inline constexpr std::string_view kServiceDequeue = "service.dequeue";
inline constexpr std::string_view kServiceCache = "service.cache";
}  // namespace fault_sites

/// Every fault site a plan may legally attack: the canonical catalog above
/// plus any sites registered at runtime. A `FaultPlan` naming a site not in
/// this list is rejected with a structured error (a typo'd site name would
/// otherwise silently never fire — the chaos test would pass by testing
/// nothing). Returned by value: the registry may grow concurrently.
[[nodiscard]] std::vector<std::string_view> known_fault_sites();

/// Register an additional fault site (idempotent). For layers and tests
/// that host `fault_point` sites outside the canonical catalog; the name
/// must have static storage duration (string literals qualify) because the
/// registry stores views. Thread-safe.
void register_fault_site(std::string_view site);

/// True when `site` names a canonical or registered fault site.
[[nodiscard]] bool is_known_fault_site(std::string_view site);

/// Pass a named fault site: no-op unless a hook is installed.
inline void fault_point(std::string_view site) {
  if (const auto hook = HookSlot<FaultHook>::pin()) hook->at(site);
}

/// Pass a value through a named corruption site.
[[nodiscard]] inline double fault_value(std::string_view site, double value) {
  if (const auto hook = HookSlot<FaultHook>::pin())
    return hook->corrupt(site, value);
  return value;
}

}  // namespace pe
