// The matmul optimization ladder (docs/kernels.md): naive -> interchanged
// -> tiled -> parallel -> parallel+packed, the canonical Assignment 2
// progression, with the packed microkernel now running on the explicit
// pe::simd vector layer.
//
// `--check` verifies both rungs of the claim: the packed path agrees with
// the naive reference (documented-ULP envelope: the microkernel splits
// each dot product at kc-block boundaries and fuses multiply-adds when
// the backend has FMA) and it is decisively faster
// than naive at the largest size. `--json <path>` writes the pe-bench-v1
// snapshot checked in at bench/snapshots/BENCH_matmul.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "perfeng/common/rng.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/bench_json.hpp"
#include "perfeng/measure/benchmark_runner.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/parallel/thread_pool.hpp"
#include "perfeng/simd/vec.hpp"

int main(int argc, char** argv) {
  bool check = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check] [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 5;
  cfg.min_batch_seconds = 2e-3;
  const pe::BenchmarkRunner runner(cfg);

  const pe::machine::Machine machine =
      pe::machine::resolve_or_preset("laptop-x86");
  const auto blocking = pe::kernels::MatmulBlocking::from_machine(machine);
  pe::ThreadPool pool;

  std::printf("== Matmul ladder (backend: %s, pool: %zu workers) ==\n\n",
              pe::simd::compiled_backend_name(), pool.size());

  pe::Table table({"variant", "N", "GFLOP/s", "vs naive"});
  pe::BenchReport report("matmul_variants");
  report.set_machine(machine);
  report.set_context("pool_threads", static_cast<double>(pool.size()));
  report.set_context(
      "simd_width_bits",
      static_cast<double>(pe::simd::compiled_width_bits()));

  double check_naive_s = 0.0, check_packed_s = 0.0;
  double worst_diff = 0.0;
  std::size_t check_n = 0;

  for (const std::size_t n : {std::size_t{128}, std::size_t{256}}) {
    pe::kernels::Matrix a(n, n), b(n, n), c(n, n), ref(n, n);
    pe::Rng rng(42);
    a.randomize(rng);
    b.randomize(rng);
    pe::kernels::matmul_naive(a, b, ref);
    const double flops = pe::kernels::matmul_flops(n, n, n);

    struct Variant {
      const char* name;
      std::function<void()> body;
    };
    const Variant variants[] = {
        {"naive", [&] { pe::kernels::matmul_naive(a, b, c); }},
        {"interchanged",
         [&] { pe::kernels::matmul_interchanged(a, b, c); }},
        {"tiled", [&] { pe::kernels::matmul_tiled(a, b, c, 64); }},
        {"parallel",
         [&] { pe::kernels::matmul_parallel(a, b, c, pool, 64); }},
        {"packed",
         [&] {
           pe::kernels::matmul_parallel_packed(a, b, c, pool, blocking);
         }},
    };

    double naive_seconds = 0.0;
    for (const Variant& v : variants) {
      const std::string label =
          std::string(v.name) + "/" + std::to_string(n);
      const auto m = runner.run(label, [&] {
        v.body();
        pe::do_not_optimize(c(0, 0));
      });
      // Every rung must agree with the naive reference. The packed rung
      // reassociates each dot product into 8 partial sums and (with FMA)
      // fuses, so the envelope is ULP-level, not bit-level.
      v.body();
      worst_diff = std::max(worst_diff, c.max_abs_diff(ref));
      if (std::strcmp(v.name, "naive") == 0) naive_seconds = m.typical();
      table.add_row({std::string(v.name), std::to_string(n),
                     pe::format_sig(flops / m.typical() / 1e9, 3),
                     pe::format_fixed(naive_seconds / m.typical(), 2) +
                         "x"});
      report.add_metric(label, "s", m.seconds);
      if (n == 256) {
        check_n = n;
        if (std::strcmp(v.name, "naive") == 0) check_naive_s = m.typical();
        if (std::strcmp(v.name, "packed") == 0)
          check_packed_s = m.typical();
      }
    }
  }
  std::fputs(table.render().c_str(), stdout);

  const double speedup = check_naive_s / check_packed_s;
  std::printf(
      "\npacked vs naive at N=%zu: %.2fx, worst |diff| vs naive: %.3e\n",
      check_n, speedup, worst_diff);
  report.add_scalar("packed_speedup_vs_naive", "ratio", speedup);
  report.add_scalar("worst_abs_diff_vs_naive", "1", worst_diff);

  if (!json_path.empty()) {
    try {
      report.save_file(json_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write '%s': %s\n", json_path.c_str(),
                   e.what());
      return 2;
    }
    std::printf("snapshot written to %s\n", json_path.c_str());
  }

  if (check) {
    // ULP envelope: inputs in [-1,1], dot length 256 -> reassociation
    // error ~1e-14; 1e-10 leaves margin yet catches any packing or
    // indexing bug outright.
    if (!(worst_diff <= 1e-10)) {
      std::printf("CHECK FAILED: |ladder - naive| = %.3e > 1e-10\n",
                  worst_diff);
      return 1;
    }
    // The packed+SIMD path must beat naive decisively even on one core;
    // 1.4x is far below what AVX2 delivers but above scheduling noise.
    if (!(speedup >= 1.4)) {
      std::printf("CHECK FAILED: packed speedup %.2fx < 1.4x\n", speedup);
      return 1;
    }
    std::printf(
        "CHECK OK: packed %.2fx faster, diff %.3e within envelope\n",
        speedup, worst_diff);
  }
  return 0;
}
