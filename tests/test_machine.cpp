// Tests for the machine description layer: validation, lossless and
// byte-stable JSON serialization, the preset registry, the PERFENG_MACHINE
// resolver, and the probe bridge.
#include "perfeng/machine/machine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfeng/common/error.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/microbench/machine_probe.hpp"

namespace {

using pe::machine::Machine;
using pe::machine::MemoryLevel;

Machine sample_machine() {
  Machine m;
  m.name = "test-node";
  m.description = "a machine invented for the tests";
  m.source = "preset";
  m.peak_flops = 3.2e10;
  m.cores = 8;
  m.hierarchy = {
      {"L1", 8e11, 1.2e-9, 32 * 1024, 64},
      {"L2", 4e11, 4.0e-9, 256 * 1024, 64},
      {"DRAM", 6e10, 9e-8, 0, 64},
  };
  m.static_watts = 12.0;
  m.peak_dynamic_watts = 48.0;
  m.link_alpha = 2e-6;
  m.link_beta = 1.0 / 1e10;
  return m;
}

// --- validation -------------------------------------------------------------

TEST(Machine, CheckAcceptsSample) { EXPECT_NO_THROW(sample_machine().check()); }

TEST(Machine, CheckRejectsEmptyName) {
  Machine m = sample_machine();
  m.name.clear();
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsZeroPeak) {
  Machine m = sample_machine();
  m.peak_flops = 0.0;
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsZeroCores) {
  Machine m = sample_machine();
  m.cores = 0;
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsEmptyHierarchy) {
  Machine m = sample_machine();
  m.hierarchy.clear();
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsDuplicateLevelNames) {
  Machine m = sample_machine();
  m.hierarchy[1].name = "L1";
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsBandwidthIncreasingTowardMemory) {
  Machine m = sample_machine();
  m.hierarchy[2].bandwidth = m.hierarchy[0].bandwidth * 2.0;
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsNonIncreasingCapacity) {
  Machine m = sample_machine();
  m.hierarchy[1].capacity = m.hierarchy[0].capacity;
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsLatencyDecreasingTowardMemory) {
  Machine m = sample_machine();
  m.hierarchy[2].latency = m.hierarchy[0].latency / 2.0;
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(Machine, CheckRejectsCacheLevelWithoutCapacity) {
  Machine m = sample_machine();
  m.hierarchy[0].capacity = 0;  // only the last level may be unbounded
  EXPECT_THROW(m.check(), pe::Error);
}

// --- derived views ----------------------------------------------------------

TEST(Machine, DerivedViews) {
  const Machine m = sample_machine();
  EXPECT_EQ(m.dram().name, "DRAM");
  EXPECT_EQ(m.fastest().name, "L1");
  EXPECT_DOUBLE_EQ(m.dram_bandwidth(), 6e10);
  EXPECT_DOUBLE_EQ(m.cache_bandwidth(), 8e11);
  EXPECT_EQ(m.largest_cache_bytes(), 256u * 1024u);
  EXPECT_DOUBLE_EQ(m.total_peak_flops(), 3.2e10 * 8.0);
  EXPECT_DOUBLE_EQ(m.ridge_intensity(), 3.2e10 / 6e10);
  EXPECT_TRUE(m.has_energy());
  EXPECT_TRUE(m.has_link());
}

// --- serialization ----------------------------------------------------------

TEST(MachineJson, RoundTripEquality) {
  const Machine m = sample_machine();
  const Machine back = pe::machine::from_json(pe::machine::to_json(m));
  EXPECT_EQ(back, m);
}

TEST(MachineJson, RoundTripIsByteStable) {
  const Machine m = sample_machine();
  const std::string once = pe::machine::to_json(m);
  const std::string twice = pe::machine::to_json(pe::machine::from_json(once));
  EXPECT_EQ(once, twice);
}

TEST(MachineJson, RoundTripSurvivesAwkwardDoubles) {
  Machine m = sample_machine();
  m.peak_flops = 0.1 + 0.2;             // classic non-representable sum
  m.hierarchy[0].bandwidth = 1.0 / 3.0;
  m.hierarchy[0].latency = 1e-300;      // subnormal-adjacent magnitude
  m.hierarchy[1].bandwidth = 0.3;
  m.hierarchy[1].latency = 2.0;
  m.hierarchy[2].bandwidth = 0.25;
  m.hierarchy[2].latency = 3.0;
  const Machine back = pe::machine::from_json(pe::machine::to_json(m));
  EXPECT_EQ(back, m);
  EXPECT_EQ(pe::machine::to_json(back), pe::machine::to_json(m));
}

TEST(MachineJson, OmitsEnergyAndLinkWhenAbsent) {
  Machine m = sample_machine();
  m.static_watts = m.peak_dynamic_watts = 0.0;
  m.link_alpha = m.link_beta = 0.0;
  const std::string text = pe::machine::to_json(m);
  EXPECT_EQ(text.find("energy"), std::string::npos);
  EXPECT_EQ(text.find("link"), std::string::npos);
  EXPECT_EQ(pe::machine::from_json(text), m);
}

TEST(MachineJson, EscapesQuotesAndBackslashes) {
  Machine m = sample_machine();
  m.description = "a \"quoted\" name with a \\ backslash";
  const Machine back = pe::machine::from_json(pe::machine::to_json(m));
  EXPECT_EQ(back.description, m.description);
}

TEST(MachineJson, RoundTripsControlCharacters) {
  Machine m = sample_machine();
  m.description = "two\nlines,\ta tab, a \r and a \x01";
  const Machine back = pe::machine::from_json(pe::machine::to_json(m));
  EXPECT_EQ(back.description, m.description);
}

// --- malformed input: pe::Error with source + line --------------------------

std::string error_message(const std::string& text,
                          const std::string& source = "input.json") {
  try {
    (void)pe::machine::from_json(text, source);
  } catch (const pe::Error& e) {
    return e.what();
  }
  return {};
}

TEST(MachineJson, MalformedSyntaxReportsSourceAndLine) {
  const std::string msg = error_message("{\n  \"name\": \"x\",\n  oops\n}");
  EXPECT_NE(msg.find("machine:"), std::string::npos);
  EXPECT_NE(msg.find("input.json"), std::string::npos);
  EXPECT_NE(msg.find("line 3"), std::string::npos);
}

TEST(MachineJson, UnknownKeyReportsItsLine) {
  const std::string msg = error_message(
      "{\n  \"name\": \"x\",\n  \"warp_drive\": 9\n}");
  EXPECT_NE(msg.find("warp_drive"), std::string::npos);
  EXPECT_NE(msg.find("line 3"), std::string::npos);
}

TEST(MachineJson, WrongTypeReportsKeyAndLine) {
  const std::string msg =
      error_message("{\n  \"name\": 42,\n  \"peak_flops\": 1\n}");
  EXPECT_NE(msg.find("'name'"), std::string::npos);
  EXPECT_NE(msg.find("line 2"), std::string::npos);
}

TEST(MachineJson, PartialFileRejected) {
  // Syntactically valid but incomplete: no hierarchy.
  EXPECT_THROW(
      (void)pe::machine::from_json("{\"name\": \"x\", \"peak_flops\": 1e9}"),
      pe::Error);
  // Hierarchy entry without a bandwidth.
  EXPECT_THROW((void)pe::machine::from_json(
                   "{\"name\": \"x\", \"peak_flops\": 1e9,"
                   " \"hierarchy\": [{\"level\": \"DRAM\"}]}"),
               pe::Error);
  // Parses but fails check(): negative-capability machine.
  EXPECT_THROW((void)pe::machine::from_json(
                   "{\"name\": \"x\", \"peak_flops\": -1,"
                   " \"hierarchy\": [{\"level\": \"DRAM\","
                   " \"bandwidth\": 1e9}]}"),
               pe::Error);
}

TEST(MachineJson, TruncatedFileRejected) {
  EXPECT_THROW((void)pe::machine::from_json("{\"name\": \"x\","), pe::Error);
  EXPECT_THROW((void)pe::machine::from_json(""), pe::Error);
}

TEST(MachineJson, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string msg = error_message(std::string(100000, '['));
  EXPECT_NE(msg.find("machine: input.json: line 1: nesting"),
            std::string::npos)
      << msg;
}

TEST(MachineJson, CountsMustBeUnsignedIntegers) {
  for (const char* cores : {"-1", "8.5", "1e3", "4294967297"}) {
    const std::string msg = error_message(
        std::string("{\"name\": \"x\", \"peak_flops\": 1e9,\n\"cores\": ") +
        cores + "}");
    EXPECT_NE(msg.find("line 2: key 'cores' must be an integer"),
              std::string::npos)
        << cores << ": " << msg;
  }
}

// --- file IO ----------------------------------------------------------------

TEST(MachineJson, SaveAndLoadFile) {
  const Machine m = sample_machine();
  const std::string path = ::testing::TempDir() + "pe_machine_roundtrip.json";
  pe::machine::save_json_file(m, path);
  const Machine back = pe::machine::load_json_file(path);
  EXPECT_EQ(back, m);
  std::remove(path.c_str());
}

TEST(MachineJson, LoadMissingFileThrows) {
  EXPECT_THROW((void)pe::machine::load_json_file("/nonexistent/machine.json"),
               pe::Error);
}

TEST(MachineJson, LoadMalformedFileNamesThePath) {
  const std::string path = ::testing::TempDir() + "pe_machine_bad.json";
  {
    std::ofstream out(path);
    out << "{\n  \"name\": \"x\"\n  \"peak_flops\": 1\n}\n";  // missing comma
  }
  try {
    (void)pe::machine::load_json_file(path);
    FAIL() << "expected pe::Error";
  } catch (const pe::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos);
    EXPECT_NE(msg.find("line"), std::string::npos);
  }
  std::remove(path.c_str());
}

// --- calibration hash -------------------------------------------------------

TEST(Machine, CalibrationHashIsStableAndSensitive) {
  const Machine m = sample_machine();
  EXPECT_EQ(m.calibration_hash().size(), 16u);
  EXPECT_EQ(m.calibration_hash(), sample_machine().calibration_hash());
  Machine changed = m;
  changed.peak_flops *= 1.0000001;
  EXPECT_NE(changed.calibration_hash(), m.calibration_hash());
}

// --- scheduler calibration --------------------------------------------------

TEST(MachineScheduler, RoundTripsThroughJson) {
  Machine m = sample_machine();
  m.sched_submit_ns = 541.75;
  m.sched_bulk_ns = 11.125;
  EXPECT_TRUE(m.has_scheduler());
  const std::string text = pe::machine::to_json(m);
  EXPECT_NE(text.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(text.find("\"submit_ns\""), std::string::npos);
  const Machine back = pe::machine::from_json(text);
  EXPECT_EQ(back, m);
  EXPECT_EQ(pe::machine::to_json(back), text);
}

TEST(MachineScheduler, OmittedWhenUnset) {
  const Machine m = sample_machine();
  EXPECT_FALSE(m.has_scheduler());
  EXPECT_EQ(pe::machine::to_json(m).find("\"scheduler\""),
            std::string::npos);
}

TEST(MachineScheduler, AffectsCalibrationHash) {
  Machine m = sample_machine();
  const std::string before = m.calibration_hash();
  m.sched_submit_ns = 500.0;
  m.sched_bulk_ns = 10.0;
  EXPECT_NE(m.calibration_hash(), before);
}

TEST(MachineScheduler, NegativeValuesRejected) {
  Machine m = sample_machine();
  m.sched_submit_ns = -1.0;
  EXPECT_THROW(m.check(), pe::Error);
  m.sched_submit_ns = 10.0;
  m.sched_bulk_ns = -0.5;
  EXPECT_THROW(m.check(), pe::Error);
}

TEST(MachineScheduler, UnknownSchedulerKeyRejected) {
  Machine m = sample_machine();
  m.sched_submit_ns = 500.0;
  m.sched_bulk_ns = 10.0;
  std::string text = pe::machine::to_json(m);
  const auto pos = text.find("\"submit_ns\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"submit_xx\"");
  EXPECT_THROW((void)pe::machine::from_json(text), pe::Error);
}

// --- simd calibration -------------------------------------------------------

TEST(MachineSimd, RoundTripsThroughJson) {
  Machine m = sample_machine();
  m.simd_width_bits = 256;
  m.simd_fma = true;
  EXPECT_TRUE(m.has_simd());
  EXPECT_EQ(m.simd_double_lanes(), 4u);
  const std::string text = pe::machine::to_json(m);
  EXPECT_NE(text.find("\"simd\""), std::string::npos);
  EXPECT_NE(text.find("\"width_bits\""), std::string::npos);
  const Machine back = pe::machine::from_json(text);
  EXPECT_EQ(back, m);
  EXPECT_EQ(pe::machine::to_json(back), text);  // byte-stable
}

TEST(MachineSimd, OmittedWhenUnset) {
  const Machine m = sample_machine();
  EXPECT_FALSE(m.has_simd());
  EXPECT_EQ(m.simd_double_lanes(), 1u);  // scalar = one lane
  EXPECT_EQ(pe::machine::to_json(m).find("\"simd\""), std::string::npos);
}

TEST(MachineSimd, AffectsCalibrationHash) {
  Machine m = sample_machine();
  const std::string before = m.calibration_hash();
  m.simd_width_bits = 256;
  m.simd_fma = true;
  EXPECT_NE(m.calibration_hash(), before);
  // Width alone vs width+fma hash differently too — fma changes what a
  // flop costs, so it must pin measurements.
  Machine no_fma = m;
  no_fma.simd_fma = false;
  EXPECT_NE(no_fma.calibration_hash(), m.calibration_hash());
}

TEST(MachineSimd, InvalidCombinationsRejected) {
  Machine m = sample_machine();
  m.simd_width_bits = 100;  // not a multiple of 64
  EXPECT_THROW(m.check(), pe::Error);
  m.simd_width_bits = 0;
  m.simd_fma = true;  // FMA with no vector unit recorded
  EXPECT_THROW(m.check(), pe::Error);
  m.simd_width_bits = 128;
  EXPECT_NO_THROW(m.check());
  EXPECT_EQ(m.simd_double_lanes(), 2u);
}

TEST(MachineSimd, UnknownSimdKeyRejected) {
  Machine m = sample_machine();
  m.simd_width_bits = 256;
  std::string text = pe::machine::to_json(m);
  const auto pos = text.find("\"width_bits\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "\"width_bitz\"");
  EXPECT_THROW((void)pe::machine::from_json(text), pe::Error);
}

TEST(MachineSimd, NonBooleanFmaRejected) {
  Machine m = sample_machine();
  m.simd_width_bits = 256;
  m.simd_fma = true;
  std::string text = pe::machine::to_json(m);
  const auto pos = text.find("\"fma\": true");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"fma\": 1.00");
  EXPECT_THROW((void)pe::machine::from_json(text), pe::Error);
}

TEST(MachineSimd, PresetsCarryHonestVectorWidths) {
  const auto& reg = pe::machine::MachineRegistry::builtin();
  // Every CPU preset records its vector hardware; das5-node (Haswell
  // E5-2630v3) and cloud-smt have FMA, the conservative laptop preset
  // does not claim it.
  EXPECT_EQ(reg.get("das5-node").simd_width_bits, 256u);
  EXPECT_TRUE(reg.get("das5-node").simd_fma);
  EXPECT_EQ(reg.get("laptop-x86").simd_width_bits, 256u);
  EXPECT_FALSE(reg.get("laptop-x86").simd_fma);
  EXPECT_TRUE(reg.get("cloud-smt").simd_fma);
}

// --- registry + resolver ----------------------------------------------------

TEST(MachineRegistry, BuiltinPresetsValidate) {
  const auto& reg = pe::machine::MachineRegistry::builtin();
  EXPECT_GE(reg.size(), 4u);
  for (const std::string& name : reg.names())
    EXPECT_NO_THROW(reg.get(name).check()) << name;
  EXPECT_TRUE(reg.contains("das5-node"));
  EXPECT_TRUE(reg.contains("laptop-x86"));
}

TEST(MachineRegistry, PresetCalibrationHashesAreUnchanged) {
  // The hash is FNV-1a over the canonical JSON, so these pin both the
  // byte form of to_json and the hash. Change them only with the presets.
  const auto& reg = pe::machine::MachineRegistry::builtin();
  EXPECT_EQ(reg.get("das5-node").calibration_hash(), "d2c167fae64c2c92");
  EXPECT_EQ(reg.get("das5-gpu").calibration_hash(), "cb6502d2337b89e1");
  EXPECT_EQ(reg.get("laptop-x86").calibration_hash(), "536b2b28f1377b89");
  EXPECT_EQ(reg.get("cloud-smt").calibration_hash(), "0d1fe53fef78e92a");
}

TEST(MachineRegistry, RejectsDuplicateNames) {
  pe::machine::MachineRegistry reg;
  reg.add(sample_machine());
  EXPECT_THROW(reg.add(sample_machine()), pe::Error);
}

TEST(MachineRegistry, GetUnknownNameThrows) {
  EXPECT_THROW((void)pe::machine::MachineRegistry::builtin().get("no-such"),
               pe::Error);
}

TEST(MachineResolver, ResolvesPresetAndFile) {
  const Machine preset = pe::machine::resolve("das5-node");
  EXPECT_EQ(preset.name, "das5-node");

  const std::string path = ::testing::TempDir() + "pe_machine_resolve.json";
  pe::machine::save_json_file(sample_machine(), path);
  const Machine from_file = pe::machine::resolve(path);
  EXPECT_EQ(from_file, sample_machine());
  std::remove(path.c_str());

  EXPECT_THROW((void)pe::machine::resolve("neither-preset-nor-file"),
               pe::Error);
}

TEST(MachineResolver, EnvOverridesPreset) {
  ASSERT_EQ(::setenv(pe::machine::kMachineEnv, "das5-gpu", 1), 0);
  EXPECT_EQ(pe::machine::resolve_or_preset("das5-node").name, "das5-gpu");
  ASSERT_TRUE(pe::machine::machine_from_env().has_value());

  ASSERT_EQ(::unsetenv(pe::machine::kMachineEnv), 0);
  EXPECT_EQ(pe::machine::resolve_or_preset("das5-node").name, "das5-node");
  EXPECT_FALSE(pe::machine::machine_from_env().has_value());
}

// --- probe bridge -----------------------------------------------------------

TEST(MachineFromProbe, MapsCharacterizationFields) {
  pe::microbench::MachineCharacterization probe;
  probe.peak_flops = 2e10;
  probe.memory_bandwidth = 3e10;
  probe.cache_bandwidth = 3e11;
  probe.memory_latency = 8e-8;
  probe.cache_latency = 2e-9;
  probe.cache_level_bytes = {32 * 1024, 1 << 20};

  const Machine m = pe::machine::from_probe(probe, "bridge-test");
  EXPECT_NO_THROW(m.check());
  EXPECT_EQ(m.name, "bridge-test");
  EXPECT_EQ(m.source, "probe");
  EXPECT_DOUBLE_EQ(m.peak_flops, 2e10);
  EXPECT_GE(m.cores, 1u);
  ASSERT_EQ(m.hierarchy.size(), 3u);  // two cache levels + DRAM
  EXPECT_DOUBLE_EQ(m.hierarchy.front().bandwidth, 3e11);
  EXPECT_DOUBLE_EQ(m.hierarchy.front().latency, 2e-9);
  EXPECT_EQ(m.hierarchy.front().capacity, 32u * 1024u);
  EXPECT_EQ(m.hierarchy.back().name, "DRAM");
  EXPECT_DOUBLE_EQ(m.hierarchy.back().bandwidth, 3e10);
  EXPECT_DOUBLE_EQ(m.hierarchy.back().latency, 8e-8);
}

TEST(MachineFromProbe, NoDetectedCachesStillValidates) {
  pe::microbench::MachineCharacterization probe;
  probe.peak_flops = 1e10;
  probe.memory_bandwidth = 2e10;
  probe.cache_bandwidth = 1e11;
  const Machine m = pe::machine::from_probe(probe);
  EXPECT_NO_THROW(m.check());
  EXPECT_EQ(m.hierarchy.back().name, "DRAM");
}

TEST(MachineFromProbe, NoisyProbeIsClampedMonotone) {
  pe::microbench::MachineCharacterization probe;
  probe.peak_flops = 1e10;
  probe.memory_bandwidth = 9e10;  // "faster" DRAM than cache: noisy probe
  probe.cache_bandwidth = 8e10;
  probe.memory_latency = 1e-9;    // and a latency inversion
  probe.cache_latency = 5e-9;
  probe.cache_level_bytes = {64 * 1024};
  EXPECT_NO_THROW(pe::machine::from_probe(probe).check());
}

}  // namespace
