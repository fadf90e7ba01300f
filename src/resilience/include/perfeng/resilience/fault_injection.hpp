#pragma once

/// \file fault_injection.hpp
/// Deterministic, seeded fault injection for chaos testing the harness.
///
/// A `FaultPlan` names the sites to attack (see pe::fault_sites) and how:
/// throw a `FaultInjected` error, delay the caller, or corrupt a measured
/// value. The `FaultInjector` executes the plan with one seeded RNG stream
/// per site, so a single-threaded campaign produces the *same* failure set
/// on every run with the same seed — the property the chaos tests and
/// `bench/chaos_suite.cpp` assert. Install the injector process-wide with
/// `ScopedFaultInjection`; every `pe::fault_point` call then consults it.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/common/fault_hook.hpp"
#include "perfeng/common/rng.hpp"

namespace pe::resilience {

/// What happens when a matching site fires.
enum class FaultKind {
  kThrow,         ///< throw FaultInjected from the site
  kDelay,         ///< sleep `delay_seconds` at the site
  kCorruptValue,  ///< scale values passing fault_value() by `corrupt_scale`
};

/// One rule of a FaultPlan: which site, what to do, and how often.
struct FaultSpec {
  std::string site;                  ///< a pe::fault_sites name
  FaultKind kind = FaultKind::kThrow;
  double probability = 1.0;          ///< chance a visit fires, in [0, 1]
  int skip_first = 0;                ///< let the first N visits pass untouched
  int max_fires = -1;                ///< stop firing after N hits (< 0: never)
  double delay_seconds = 1e-3;       ///< kDelay: how long to stall
  double corrupt_scale = 100.0;      ///< kCorruptValue: multiplier applied
  std::string message;               ///< optional throw-message override
};

/// A reproducible chaos scenario: a seed plus the fault rules.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> faults;
};

/// Error thrown by sites under a kThrow fault.
class FaultInjected : public Error {
 public:
  FaultInjected(std::string site, int visit, const std::string& message);

  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  /// 1-based visit count at which the fault fired.
  [[nodiscard]] int visit() const noexcept { return visit_; }

 private:
  std::string site_;
  int visit_;
};

/// Executes a FaultPlan at the process-wide fault sites. Thread-safe;
/// determinism is per-site visit order (single-threaded campaigns are
/// exactly reproducible, concurrent sites are reproducible per site as
/// long as each site is visited from one thread at a time).
class FaultInjector final : public FaultHook {
 public:
  explicit FaultInjector(FaultPlan plan);

  void at(std::string_view site) override;
  double corrupt(std::string_view site, double value) override;

  /// Total times a site was passed (0 for unknown/unattacked sites).
  [[nodiscard]] int visits(std::string_view site) const;
  /// Times a site actually fired its fault.
  [[nodiscard]] int fires(std::string_view site) const;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Every site a plan may attack: `pe::known_fault_sites()` re-exported
  /// for chaos drivers (bench/chaos_suite enumerates injection coverage
  /// from it). The constructor validates every spec against this list and
  /// throws a pe::Error naming the known sites on a miss — a typo'd site
  /// would otherwise silently never fire.
  [[nodiscard]] static std::vector<std::string_view> known_sites();

 private:
  struct SiteState {
    const FaultSpec* spec = nullptr;  // owned by plan_
    Rng rng{0};
    int visits = 0;
    int fires = 0;
  };

  /// Which hook is consulting the site: fault_point() can execute kThrow /
  /// kDelay specs, fault_value() only kCorruptValue specs. A visit through
  /// the wrong hook must not consume the spec's fire budget.
  enum class Hook { kPoint, kValue };

  /// Returns the spec if this visit should fire through `hook`, bumping
  /// counters. Only a visit whose hook matches the spec kind can fire.
  const FaultSpec* roll(SiteState& state, Hook hook);

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::map<std::string, SiteState, std::less<>> sites_;
};

/// RAII guard: installs the injector as the process-wide hook on
/// construction and removes it on destruction, waiting until no site is
/// still inside the injector (a delayed site keeps it waiting). Only one may
/// be active at a time (nesting throws pe::Error — overlapping chaos plans
/// are a test bug).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultPlan plan) : injector_(std::move(plan)) {}

  [[nodiscard]] FaultInjector& injector() noexcept { return injector_; }

 private:
  FaultInjector injector_;
  ScopedHook<FaultHook> scope_{injector_};  // uninstalls before injector_ dies
};

}  // namespace pe::resilience
