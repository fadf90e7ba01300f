// Robustness topic: a chaos campaign over the measurement toolbox — the
// same fault-injection discipline production systems use, applied to a
// benchmark suite. Demonstrates (1) seeded, reproducible fault plans,
// (2) graceful suite degradation with partial scores, (3) the runner's
// deadline aborting a runaway calibration, and (4) the counter collector
// falling back to its simulated backend when the hardware path faults.
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "perfeng/common/error.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/counters/collector.hpp"
#include "perfeng/kernels/fft.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/kernels/stencil.hpp"
#include "perfeng/measure/suite.hpp"
#include "perfeng/resilience/fault_injection.hpp"
#include "perfeng/resilience/measurement_error.hpp"

namespace {

pe::BenchmarkSuite build_suite(pe::kernels::Matrix& a, pe::kernels::Matrix& b,
                               pe::kernels::Matrix& c,
                               pe::kernels::Grid2D& grid,
                               pe::kernels::Grid2D& out,
                               std::vector<pe::kernels::Complex>& signal) {
  pe::BenchmarkSuite suite("perfeng-chaos");
  suite.add({"matmul-96",
             [&] { pe::kernels::matmul_interchanged(a, b, c); }, 1e-3});
  suite.add({"stencil-192",
             [&] { pe::kernels::stencil_step_naive(grid, out); }, 1e-4});
  suite.add({"fft-2048",
             [&] { pe::do_not_optimize(pe::kernels::fft(signal)); }, 2e-4});
  return suite;
}

void report(const pe::SuiteScore& score) {
  pe::Table t({"benchmark", "outcome", "detail"});
  for (const auto& r : score.results)
    t.add_row({r.name, "ok",
               pe::format_time(r.seconds) + " (ratio " +
                   pe::format_fixed(r.ratio, 2) + ")"});
  for (const auto& f : score.failed) t.add_row({f.name, "FAILED", f.error});
  std::fputs(t.render().c_str(), stdout);
  std::printf("partial geometric mean over %zu survivor(s): %.2f%s\n",
              score.results.size(), score.geometric_mean_ratio,
              score.complete() ? "" : "  [INCOMPLETE]");
}

}  // namespace

int main() {
  std::puts("== Chaos campaign over the measurement toolbox ==\n");

  // ---- 0. the fault-site catalog ----
  // A chaos plan is only as trustworthy as its spelling: a typo'd site
  // would silently inject nothing. FaultInjector therefore rejects
  // unknown sites up front, and `known_sites()` is the introspection that
  // keeps this enumeration honest (it includes any sites registered at
  // runtime via pe::register_fault_site).
  std::puts("-- injectable fault sites (FaultInjector::known_sites) --");
  {
    pe::Table sites({"site"});
    for (const std::string_view site :
         pe::resilience::FaultInjector::known_sites())
      sites.add_row({std::string(site)});
    std::fputs(sites.render().c_str(), stdout);
    pe::resilience::FaultPlan typo;
    typo.faults.push_back({.site = "kernel.cal"});  // note the typo
    try {
      const pe::resilience::FaultInjector reject{std::move(typo)};
      std::puts("unexpected: a typo'd site was accepted");
    } catch (const pe::Error& e) {
      std::printf("typo'd plan rejected as designed:\n  %s\n\n", e.what());
    }
  }

  const std::size_t n = 96;
  pe::kernels::Matrix a(n, n), b(n, n), c(n, n);
  pe::Rng rng(1);
  a.randomize(rng);
  b.randomize(rng);
  pe::kernels::Grid2D grid(192, 192, 1.0), out(192, 192);
  std::vector<pe::kernels::Complex> signal(1 << 11);
  for (auto& v : signal)
    v = {rng.next_range_double(-1, 1), rng.next_range_double(-1, 1)};
  auto suite = build_suite(a, b, c, grid, out, signal);

  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 5;
  cfg.min_batch_seconds = 1e-3;
  const pe::BenchmarkRunner runner(cfg);

  // ---- 1. seeded fault campaign, run twice ----
  std::puts("-- kernel.call faults, p=0.5, seed 2026 (run twice) --");
  for (int run = 1; run <= 2; ++run) {
    pe::resilience::FaultPlan plan;
    plan.seed = 2026;
    plan.faults.push_back(
        {.site = std::string(pe::fault_sites::kKernelCall),
         .probability = 0.5,
         .max_fires = 1,
         .message = "injected kernel fault (chaos plan, seed 2026)"});
    pe::resilience::ScopedFaultInjection scope(std::move(plan));
    std::printf("run %d:\n", run);
    report(suite.run(runner));
  }
  std::puts(
      "same seed, same failure set — chaos campaigns are reproducible.\n");

  // ---- 2. deadline vs a runaway calibration ----
  std::puts("-- deadline: min_batch_seconds unreachable under deadline --");
  pe::MeasurementConfig strangled = cfg;
  strangled.min_batch_seconds = 60.0;  // would calibrate for a minute
  strangled.deadline_seconds = 0.25;
  try {
    (void)pe::BenchmarkRunner(strangled).run("runaway-calibration", [&] {
      pe::kernels::matmul_interchanged(a, b, c);
    });
    std::puts("unexpected: measurement completed");
  } catch (const pe::resilience::MeasurementError& e) {
    std::printf("aborted as designed: %s\n\n", e.what());
  }

  // ---- 3. counter collection degrading to the simulated backend ----
  std::puts("-- counters.read fault: collector degrades, not dies --");
  const pe::counters::CounterCollector collector;
  pe::resilience::FaultPlan counter_plan;
  counter_plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kCountersRead),
       .message = "injected counter-backend fault"});
  pe::resilience::ScopedFaultInjection counter_scope(
      std::move(counter_plan));
  const auto collected = collector.collect(
      [&] { pe::kernels::matmul_interchanged(a, b, c); });
  std::printf("backend: %s%s\n", collected.backend.c_str(),
              collected.degraded ? "  [degraded]" : "");
  if (!collected.note.empty())
    std::printf("reason:  %s\n", collected.note.c_str());
  std::printf("cycles (synthesized): %llu\n",
              static_cast<unsigned long long>(
                  collected.counters.get(pe::counters::kCycles)));

  std::puts(
      "\nExpected shape: both chaos runs fail the identical member set; the "
      "deadline\nreturns a structured timeout instead of hanging; counter "
      "collection reports\na degraded simulated estimate instead of "
      "crashing the campaign.");
  return 0;
}
