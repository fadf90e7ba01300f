#include "report.hpp"

#include <cmath>
#include <cstdio>

#include "perfeng/common/error.hpp"

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"solve_s", "s"},
    {"step_p50_us", "us"},
    {"lat_p50_ms", "ms"},
    {"goodput_per_s", "1/s"},
    {"max_rate_per_s", "1/s"},
};

#define PERFBENCH_KERNEL_METRICS(k)                                     \
  {"kernels." k ".call_us.p50", "us"}, {"kernels." k ".call_us.tail", "us"}, \
      {"kernels." k ".gflops", "GFLOP/s"}, {"kernels." k ".gbs", "GB/s"},   \
      {"kernels." k ".roof_frac", "frac"}, {"kernels." k ".share", "frac"}

constexpr MetricSpec kPerLayer[] = {
    {"microbench.probe_s", "s"},
    {"microbench.peak_s", "s"},
    {"microbench.stream_s", "s"},
    {"microbench.latency_s", "s"},
    {"parallel.dispatch_p50_us", "us"},
    {"parallel.dispatch_p99_us", "us"},
    {"parallel.dispatch_share", "frac"},
    {"parallel.wait_share", "frac"},
    {"parallel.parks_per_step", "count"},
    {"parallel.park_ms_per_step", "ms"},
    {"parallel.steals_per_step", "count"},
    {"parallel.empty_region_us", "us"},
    {"parallel.stencil.efficiency", "frac"},
    {"parallel.spmv.efficiency", "frac"},
    {"parallel.triad.efficiency", "frac"},
    PERFBENCH_KERNEL_METRICS("stencil"),
    PERFBENCH_KERNEL_METRICS("spmv"),
    PERFBENCH_KERNEL_METRICS("matmul128"),
    PERFBENCH_KERNEL_METRICS("matmul1536"),
    PERFBENCH_KERNEL_METRICS("triad"),
    {"step.accounted_frac", "frac"},
    {"measure.run_overhead_ms", "ms"},
    {"measure.kernel_calls_per_run", "count"},
    {"service.submit_us.p50", "us"},
    {"service.submit_us.p99", "us"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.run_ms.p50", "ms"},
    {"service.run_ms.p99", "ms"},
    {"service.queue_depth_p99", "count"},
    {"service.hit_lat_us.p50", "us"},
    {"service.leader_lat_ms.p50", "ms"},
    {"service.reuse_ratio", "frac"},
    {"service.wq_vs_mmc", "ratio"},
    {"service.shed.queue-full", "count"},
    {"service.shed.tenant-share", "count"},
    {"service.shed.breaker", "count"},
    {"service.shed.admission-fault", "count"},
    {"service.shed.deadline", "count"},
    {"service.shed.shutdown", "count"},
    {"gen.lag_p99_ms", "ms"},
    {"gen.offered_per_s", "1/s"},
    {"observe.overhead_frac", "frac"},
    {"observe.dropped", "count"},
    {"threads.max", "count"},
};

#undef PERFBENCH_KERNEL_METRICS

bool in_catalogue(std::span<const MetricSpec> specs, const std::string& name) {
  for (const MetricSpec& m : specs)
    if (name == m.name) return true;
  return false;
}

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

void Report::set(const std::string& name, double value) {
  PE_REQUIRE(in_catalogue(kEndToEnd, name) || in_catalogue(kPerLayer, name),
             "metric not in the catalogue: " + name);
  values_[name] = value;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& what, std::uint64_t n) {
  // Keep the first few reasons; the count carries the rest.
  if (failed_ < 8) notes_.push_back("FAILED: " + what);
  failed_ += n;
}

void Report::problem(const std::string& what) {
  problems_.push_back(what);
}

double Report::fail_frac() const {
  return attempted_ > 0 ? static_cast<double>(failed_) /
                              static_cast<double>(attempted_)
                        : 1.0;
}

void Report::print(bool traced) {
  const std::span<const MetricSpec> specs =
      traced ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& m : specs) {
    auto it = values_.find(m.name);
    if (it == values_.end()) {
      if (!traced) problem(std::string("metric not measured: ") + m.name);
      values_[m.name] = 0.0;
    } else if (!std::isfinite(it->second)) {
      problem(std::string("metric not finite: ") + m.name);
      it->second = 0.0;
    }
  }
  if (attempted_ == 0) problem("no operation attempted");

  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& p : problems_) std::printf("PROBLEM: %s\n", p.c_str());
  std::printf("fail_frac = %.6g frac (%llu of %llu operations)\n", fail_frac(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const MetricSpec& m : specs)
    std::printf("%s = %.6g %s\n", m.name, values_[m.name], m.unit);

  const bool correct = failed_ == 0 && problems_.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", specs[i].name, values_[specs[i].name],
                specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
