#pragma once

/// \file machine_probe.hpp
/// One-call machine characterization for model calibration.
///
/// Bundles the peak-FLOPS, STREAM, and latency microbenchmarks into a
/// `MachineCharacterization` — the numbers every model in `perfeng/models`
/// is calibrated from. This is "Stage 2: understand current performance"
/// applied to the *system* rather than the application.

#include <cstddef>
#include <string>
#include <vector>

#include "perfeng/machine/machine.hpp"
#include "perfeng/measure/benchmark_runner.hpp"

namespace pe::microbench {

/// Calibrated machine parameters.
struct MachineCharacterization {
  double peak_flops = 0.0;             ///< single-thread FLOP/s roof
  double memory_bandwidth = 0.0;       ///< sustainable DRAM bytes/s
  double cache_bandwidth = 0.0;        ///< small-working-set bytes/s
  double memory_latency = 0.0;         ///< dependent-load s at large sets
  double cache_latency = 0.0;          ///< dependent-load s at small sets
  std::vector<std::size_t> cache_level_bytes;  ///< detected level capacities

  /// Vector capability from pe::simd::runtime_simd_caps() — what the CPU
  /// *reports*, not a measurement (0/false when the probe skipped it).
  unsigned simd_width_bits = 0;
  bool simd_fma = false;

  /// Machine balance: FLOPs per byte at the ridge point of the Roofline.
  [[nodiscard]] double ridge_intensity() const {
    return memory_bandwidth > 0.0 ? peak_flops / memory_bandwidth : 0.0;
  }

  /// One-line human-readable summary.
  [[nodiscard]] std::string summary() const;
};

/// Probe settings. With the defaults, `probe_machine` took 1.7-2.1 s on a
/// 4-vCPU Xeon under a runner with no warm-up and 3 repetitions, and
/// 2.0-2.3 s under a default `MeasurementConfig`; the latency sweep is
/// most of it (latency.hpp).
struct ProbeConfig {
  /// 32 MiB per vector, 96 MiB for the three: DRAM-resident only where the
  /// last-level cache is smaller (a 300 MiB L3 holds all three).
  std::size_t stream_elements = 1u << 22;
  /// 32 KiB per vector, 96 KiB for the three: past a 32 or 48 KiB L1d, so
  /// L2-resident on most x86 hosts.
  std::size_t cache_stream_elements = 1u << 12;
  std::size_t latency_min_bytes = 1u << 12;
  std::size_t latency_max_bytes = 1u << 25;
};

/// Run the full characterization with the given measurement design.
[[nodiscard]] MachineCharacterization probe_machine(
    const BenchmarkRunner& runner, const ProbeConfig& config = {});

/// Probe and emit a serializable `pe::machine::Machine` directly — the
/// shape every model's `from_machine()` factory calibrates from. Save it
/// with `pe::machine::save_json_file` and point `PERFENG_MACHINE` at the
/// file to reuse the probe everywhere.
[[nodiscard]] machine::Machine probe_machine_description(
    const BenchmarkRunner& runner, const ProbeConfig& config = {},
    std::string name = "probed");

/// The shared driver path: the machine named by `PERFENG_MACHINE` (preset
/// or JSON file) when set, else a fresh probe of this host.
[[nodiscard]] machine::Machine resolve_or_probe(
    const BenchmarkRunner& runner, const ProbeConfig& config = {});

}  // namespace pe::microbench

namespace pe::machine {

/// Bridge a probe result into the machine layer: detected cache levels
/// become the hierarchy (bandwidth/latency interpolated geometrically
/// between the measured cache- and DRAM-resident endpoints, then clamped
/// monotone so a noisy probe still validates), DRAM closes the hierarchy,
/// and `cores` records the host's hardware concurrency. The result passes
/// `Machine::check()`.
[[nodiscard]] Machine from_probe(
    const pe::microbench::MachineCharacterization& probe,
    std::string name = "probed");

}  // namespace pe::machine
