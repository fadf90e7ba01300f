// perfbench: the repository benchmark. One run of one workload:
//
//   perfbench --workload <short_regions|long_regions|service_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// prints human-readable context and metric lines, then one JSON object as
// the last line of standard output. --trace 0 measures the end-to-end
// metrics with tracing off; --trace 1 is the separate traced run that
// yields the per-layer metrics (and writes its spans to --spans). The exit
// code is 0 only when a result was printed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <short_regions|long_regions|"
               "service_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  double seed = -1.0, trace = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : perfbench::end_to_end_metrics())
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const auto& m : perfbench::per_layer_metrics())
        std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      ok = parse_number(value, seed);
    } else if (arg == "--seconds") {
      ok = parse_number(value, options.seconds);
    } else if (arg == "--trace") {
      ok = parse_number(value, trace);
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  if (seed < 0.0 || seed != static_cast<double>(static_cast<long long>(seed)) ||
      !(options.seconds > 0.0 && options.seconds <= 600.0) ||
      (trace != 0.0 && trace != 1.0))
    return usage(argv[0]);
  options.seed = static_cast<std::uint64_t>(seed);
  options.traced = trace == 1.0;
  options.host = perfbench::describe_host();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? 1 : 0);
  std::printf("host = %s\n", perfbench::host_json(options.host).c_str());

  perfbench::Report report;
  try {
    if (options.workload == "short_regions") {
      perfbench::run_short_regions(options, report);
    } else if (options.workload == "long_regions") {
      perfbench::run_long_regions(options, report);
    } else if (options.workload == "service_mixed") {
      perfbench::run_service_mixed(options, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    // An invalid run (generator behind schedule) or an error: no result.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  report.print(options.traced);
  return 0;
}
