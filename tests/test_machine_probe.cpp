// Tests for the one-call machine characterization in perfeng/microbench.
#include "perfeng/microbench/machine_probe.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "perfeng/machine/registry.hpp"
#include "perfeng/microbench/scheduler.hpp"
#include "perfeng/resilience/measurement_error.hpp"
#include "perfeng/simd/caps.hpp"
#include "perfeng/simd/vec.hpp"

namespace {

TEST(MachineProbe, ProducesConsistentCharacterization) {
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 0;
  cfg.repetitions = 2;
  cfg.min_batch_seconds = 5e-5;
  const pe::BenchmarkRunner runner(cfg);

  pe::microbench::ProbeConfig probe;
  probe.stream_elements = 1 << 16;       // keep the test fast
  probe.cache_stream_elements = 1 << 11;
  probe.latency_min_bytes = 1 << 12;
  probe.latency_max_bytes = 1 << 16;

  const auto mc = pe::microbench::probe_machine(runner, probe);
  EXPECT_GT(mc.peak_flops, 1e6);
  EXPECT_GT(mc.memory_bandwidth, 1e6);
  EXPECT_GT(mc.cache_bandwidth, 1e6);
  EXPECT_GT(mc.cache_latency, 0.0);
  EXPECT_GT(mc.memory_latency, 0.0);
  EXPECT_GT(mc.ridge_intensity(), 0.0);

  const std::string s = mc.summary();
  EXPECT_NE(s.find("peak"), std::string::npos);
  EXPECT_NE(s.find("ridge"), std::string::npos);

  // The probe records the host's vector capability from the runtime caps
  // probe, and the machine bridge must carry it into the calibration (so
  // calibration_hash pins which vector hardware measured the numbers).
  EXPECT_EQ(mc.simd_width_bits, pe::simd::runtime_simd_caps().width_bits());
  EXPECT_EQ(mc.simd_fma, pe::simd::runtime_simd_caps().fma &&
                             mc.simd_width_bits > 0);
  const pe::machine::Machine m = pe::machine::from_probe(mc, "probe-test");
  EXPECT_NO_THROW(m.check());
  EXPECT_EQ(m.simd_width_bits, mc.simd_width_bits);
  EXPECT_EQ(m.simd_fma, mc.simd_fma);
  // A binary compiled against the AVX2 backend can only be running on a
  // host whose probe reports at least 256-bit vectors.
  if (pe::simd::compiled_width_bits() > 0) {
    EXPECT_GE(m.simd_width_bits, pe::simd::compiled_width_bits());
  }
}

TEST(MachineProbe, RidgeIsZeroWithoutBandwidth) {
  pe::microbench::MachineCharacterization mc;
  mc.peak_flops = 1e9;
  mc.memory_bandwidth = 0.0;
  EXPECT_EQ(mc.ridge_intensity(), 0.0);
}

TEST(SchedulerProbe, MeasuresBothDispatchPaths) {
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 0;
  cfg.repetitions = 2;
  cfg.min_batch_seconds = 5e-5;
  const pe::BenchmarkRunner runner(cfg);

  pe::microbench::SchedulerProbeConfig probe;
  probe.tasks = 256;  // keep the test fast
  const auto sc = pe::microbench::probe_scheduler(runner, probe);
  EXPECT_GT(sc.submit_ns, 0.0);
  EXPECT_GT(sc.bulk_ns, 0.0);
  EXPECT_EQ(sc.tasks, 256u);
  EXPECT_GE(sc.pool_threads, 2u);  // probe floors at two workers

  const std::string s = sc.summary();
  EXPECT_NE(s.find("submit"), std::string::npos);
  EXPECT_NE(s.find("bulk"), std::string::npos);
}

TEST(SchedulerProbe, TimedOutProbeLeavesNothingRunning) {
  // The probe's kernels capture its pool, futures, sink and counters by
  // reference. The 1 ms budget is spent during the warm-ups, and the
  // runner throws on this thread, so no call outlives the probe's frame.
  // A call still running on another thread would reach those dead locals
  // during the sleep, where ASan reports it.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 20;
  cfg.repetitions = 1;
  cfg.deadline_seconds = 1e-3;
  const pe::BenchmarkRunner runner(cfg);
  pe::microbench::SchedulerProbeConfig probe;
  probe.tasks = 20000;
  probe.pool_threads = 2;
  try {
    (void)pe::microbench::probe_scheduler(runner, probe);
    FAIL() << "expected MeasurementError";
  } catch (const pe::resilience::MeasurementError& e) {
    EXPECT_EQ(e.kind(), pe::resilience::FailureKind::kTimeout);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
}

TEST(SchedulerProbe, AppliesToMachineCalibration) {
  pe::microbench::SchedulerCharacterization sc;
  sc.submit_ns = 500.0;
  sc.bulk_ns = 12.5;
  sc.tasks = 1024;
  sc.pool_threads = 4;
  EXPECT_DOUBLE_EQ(sc.bulk_speedup(), 40.0);

  pe::machine::Machine m = pe::machine::resolve_or_preset("laptop-x86");
  ASSERT_FALSE(m.has_scheduler());
  const std::string before = m.calibration_hash();
  pe::microbench::apply_scheduler_probe(m, sc);
  EXPECT_TRUE(m.has_scheduler());
  EXPECT_DOUBLE_EQ(m.sched_submit_ns, 500.0);
  EXPECT_DOUBLE_EQ(m.sched_bulk_ns, 12.5);
  EXPECT_NE(m.calibration_hash(), before);
  EXPECT_NO_THROW(m.check());
}

}  // namespace
