// Tests for the seeded fault injector in perfeng/resilience.
#include "perfeng/resilience/fault_injection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfeng/common/fault_hook.hpp"
#include "perfeng/measure/timer.hpp"

namespace {

using pe::resilience::FaultInjected;
using pe::resilience::FaultInjector;
using pe::resilience::FaultKind;
using pe::resilience::FaultPlan;
using pe::resilience::FaultSpec;
using pe::resilience::ScopedFaultInjection;
using FaultSlot = pe::HookSlot<pe::FaultHook>;

// Synthetic sites this file uses in fault specs. The injector rejects
// unknown sites (a typo'd plan must fail loudly, not silently no-op), so
// tests opt their scratch sites into the registry up front.
const bool kScratchSitesRegistered = [] {
  pe::register_fault_site("s");
  pe::register_fault_site("c");
  return true;
}();

TEST(FaultInjection, NoHookMeansNoOp) {
  ASSERT_EQ(FaultSlot::installed(), nullptr);
  EXPECT_NO_THROW(pe::fault_point("kernel.call"));
  EXPECT_DOUBLE_EQ(pe::fault_value("kernel.call", 1.5), 1.5);
}

TEST(FaultInjection, ThrowFaultFiresAtSite) {
  FaultPlan plan;
  plan.faults.push_back({.site = "kernel.call"});
  ScopedFaultInjection scope(std::move(plan));
  try {
    pe::fault_point("kernel.call");
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.site(), "kernel.call");
    EXPECT_EQ(e.visit(), 1);
  }
  EXPECT_EQ(scope.injector().visits("kernel.call"), 1);
  EXPECT_EQ(scope.injector().fires("kernel.call"), 1);
  // Other sites are untouched but still counted when visited.
  EXPECT_NO_THROW(pe::fault_point("io.csv"));
  EXPECT_EQ(scope.injector().visits("io.csv"), 1);
  EXPECT_EQ(scope.injector().fires("io.csv"), 0);
}

TEST(FaultInjection, ScopeInstallsAndRemovesHook) {
  {
    ScopedFaultInjection scope(FaultPlan{});
    EXPECT_EQ(FaultSlot::installed(), &scope.injector());
  }
  EXPECT_EQ(FaultSlot::installed(), nullptr);
}

TEST(FaultInjection, NestedScopesRejected) {
  ScopedFaultInjection outer(FaultPlan{});
  EXPECT_THROW(ScopedFaultInjection inner(FaultPlan{}), pe::Error);
  // The rejected install leaves the first hook in place.
  EXPECT_EQ(FaultSlot::installed(), &outer.injector());
}

// A site stalled inside the injector holds its pin, so ending the scope
// waits until at() has returned: the injector never dies under a caller.
TEST(FaultInjection, ScopeEndWaitsForASiteInsideTheInjector) {
  FaultPlan plan;
  plan.faults.push_back(
      {.site = "s", .kind = FaultKind::kDelay, .delay_seconds = 0.1});
  auto scope = std::make_unique<ScopedFaultInjection>(std::move(plan));
  const pe::WallTimer t;
  std::thread site([] { pe::fault_point("s"); });
  while (scope->injector().visits("s") == 0) std::this_thread::yield();
  scope.reset();
  // at() started after t and slept 0.1 s before returning.
  EXPECT_GE(t.elapsed(), 0.095);
  site.join();
}

// Uninstalling from inside the hook would wait for its own pin: it must
// abort with a message, never hang.
TEST(FaultInjectionDeathTest, UninstallWhileHoldingAPinAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  struct SelfRemovingHook final : pe::FaultHook {
    std::optional<pe::ScopedHook<pe::FaultHook>> scope;
    void at(std::string_view) override { scope.reset(); }
    double corrupt(std::string_view, double value) override { return value; }
  };
  EXPECT_DEATH(
      {
        SelfRemovingHook hook;
        hook.scope.emplace(hook);
        pe::fault_point("s");
      },
      "holds a pin");
}

TEST(FaultInjection, SkipFirstLetsEarlyVisitsPass) {
  FaultPlan plan;
  plan.faults.push_back({.site = "s", .skip_first = 2});
  ScopedFaultInjection scope(std::move(plan));
  EXPECT_NO_THROW(pe::fault_point("s"));
  EXPECT_NO_THROW(pe::fault_point("s"));
  EXPECT_THROW(pe::fault_point("s"), FaultInjected);
}

TEST(FaultInjection, MaxFiresBoundsTheDamage) {
  FaultPlan plan;
  plan.faults.push_back({.site = "s", .max_fires = 2});
  ScopedFaultInjection scope(std::move(plan));
  EXPECT_THROW(pe::fault_point("s"), FaultInjected);
  EXPECT_THROW(pe::fault_point("s"), FaultInjected);
  EXPECT_NO_THROW(pe::fault_point("s"));
  EXPECT_NO_THROW(pe::fault_point("s"));
  EXPECT_EQ(scope.injector().fires("s"), 2);
}

TEST(FaultInjection, FireBudgetNotConsumedByMismatchedHook) {
  // Regression: a site can host both hooks (kernel.call passes fault_point
  // *and* fault_value in BenchmarkRunner). Visits through the hook that
  // cannot execute the spec kind must neither fire nor eat max_fires.
  {
    FaultPlan plan;
    plan.faults.push_back({.site = "s", .max_fires = 1});
    ScopedFaultInjection scope(std::move(plan));
    EXPECT_DOUBLE_EQ(pe::fault_value("s", 2.0), 2.0);
    EXPECT_DOUBLE_EQ(pe::fault_value("s", 2.0), 2.0);
    EXPECT_EQ(scope.injector().fires("s"), 0);
    EXPECT_THROW(pe::fault_point("s"), FaultInjected);  // budget intact
    EXPECT_EQ(scope.injector().fires("s"), 1);
    EXPECT_NO_THROW(pe::fault_point("s"));  // and now spent
  }
  {
    // Mirror image: at() visits must not consume a corruption budget.
    FaultPlan plan;
    plan.faults.push_back({.site = "c",
                           .kind = FaultKind::kCorruptValue,
                           .max_fires = 1,
                           .corrupt_scale = 10.0});
    ScopedFaultInjection scope(std::move(plan));
    EXPECT_NO_THROW(pe::fault_point("c"));
    EXPECT_NO_THROW(pe::fault_point("c"));
    EXPECT_EQ(scope.injector().fires("c"), 0);
    EXPECT_DOUBLE_EQ(pe::fault_value("c", 2.0), 20.0);  // budget intact
    EXPECT_EQ(scope.injector().fires("c"), 1);
    EXPECT_DOUBLE_EQ(pe::fault_value("c", 2.0), 2.0);  // and now spent
  }
}

std::vector<bool> firing_pattern(std::uint64_t seed, int visits) {
  FaultPlan plan;
  plan.seed = seed;
  plan.faults.push_back({.site = "s", .probability = 0.5});
  ScopedFaultInjection scope(std::move(plan));
  std::vector<bool> fired;
  for (int i = 0; i < visits; ++i) {
    try {
      pe::fault_point("s");
      fired.push_back(false);
    } catch (const FaultInjected&) {
      fired.push_back(true);
    }
  }
  return fired;
}

TEST(FaultInjection, ProbabilisticFiringIsSeedDeterministic) {
  const auto a = firing_pattern(7, 200);
  const auto b = firing_pattern(7, 200);
  EXPECT_EQ(a, b);  // same seed, same failure set — the chaos contract
  const auto c = firing_pattern(8, 200);
  EXPECT_NE(a, c);  // a different seed attacks differently
  // Roughly half the visits fire.
  const auto hits = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(hits, 60);
  EXPECT_LT(hits, 140);
}

TEST(FaultInjection, CorruptValueScalesOnlyThroughFaultValue) {
  FaultPlan plan;
  plan.faults.push_back({.site = "s",
                         .kind = FaultKind::kCorruptValue,
                         .corrupt_scale = 100.0});
  ScopedFaultInjection scope(std::move(plan));
  EXPECT_NO_THROW(pe::fault_point("s"));  // at() is a no-op for corruption
  EXPECT_DOUBLE_EQ(pe::fault_value("s", 2.0), 200.0);
  // A site without a corrupt spec passes values through untouched.
  EXPECT_DOUBLE_EQ(pe::fault_value("other", 2.0), 2.0);
}

TEST(FaultInjection, DelayFaultStallsTheCaller) {
  FaultPlan plan;
  plan.faults.push_back(
      {.site = "s", .kind = FaultKind::kDelay, .delay_seconds = 0.02});
  ScopedFaultInjection scope(std::move(plan));
  const pe::WallTimer t;
  pe::fault_point("s");
  EXPECT_GE(t.elapsed(), 0.015);
}

TEST(FaultInjection, CustomMessageUsedWhenSet) {
  FaultPlan plan;
  plan.faults.push_back({.site = "s", .message = "backend melted"});
  ScopedFaultInjection scope(std::move(plan));
  try {
    pe::fault_point("s");
    FAIL();
  } catch (const FaultInjected& e) {
    EXPECT_STREQ(e.what(), "backend melted");
  }
}

TEST(FaultInjection, UnknownSiteRejectedWithCatalog) {
  FaultPlan plan;
  plan.faults.push_back({.site = "no.such.site"});
  try {
    FaultInjector injector(std::move(plan));
    FAIL() << "expected pe::Error for unknown site";
  } catch (const pe::Error& e) {
    const std::string msg = e.what();
    // The error is a teaching moment: it names the typo'd site, lists
    // every site the build knows, and says how to register new ones.
    EXPECT_NE(msg.find("no.such.site"), std::string::npos) << msg;
    EXPECT_NE(msg.find("kernel.call"), std::string::npos) << msg;
    EXPECT_NE(msg.find("service.admit"), std::string::npos) << msg;
    EXPECT_NE(msg.find("register_fault_site"), std::string::npos) << msg;
  }
}

TEST(FaultInjection, KnownSitesIntrospection) {
  const std::vector<std::string_view> sites = FaultInjector::known_sites();
  const auto has = [&](std::string_view s) {
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  // Catalog sites plus this file's registered scratch sites.
  EXPECT_TRUE(has(pe::fault_sites::kKernelCall));
  EXPECT_TRUE(has(pe::fault_sites::kServiceAdmit));
  EXPECT_TRUE(has(pe::fault_sites::kServiceDequeue));
  EXPECT_TRUE(has(pe::fault_sites::kServiceCache));
  EXPECT_TRUE(has("s"));
  EXPECT_TRUE(has("c"));
  EXPECT_TRUE(pe::is_known_fault_site("kernel.call"));
  EXPECT_FALSE(pe::is_known_fault_site("no.such.site"));
  // Re-registration is idempotent: no duplicate entries.
  pe::register_fault_site("s");
  const auto again = FaultInjector::known_sites();
  EXPECT_EQ(std::count(again.begin(), again.end(),
                       std::string_view("s")),
            1);
}

TEST(FaultInjection, PlanValidation) {
  FaultPlan bad_site;
  bad_site.faults.push_back({.site = ""});
  EXPECT_THROW(pe::resilience::FaultInjector{bad_site}, pe::Error);

  FaultPlan bad_prob;
  bad_prob.faults.push_back({.site = "s", .probability = 1.5});
  EXPECT_THROW(pe::resilience::FaultInjector{bad_prob}, pe::Error);

  FaultPlan duplicate;
  duplicate.faults.push_back({.site = "s"});
  duplicate.faults.push_back({.site = "s", .kind = FaultKind::kDelay});
  EXPECT_THROW(pe::resilience::FaultInjector{duplicate}, pe::Error);
}

}  // namespace
