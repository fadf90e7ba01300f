// Tests for the pe-bench-v1 writer (perfeng/measure/bench_json.hpp), read
// back with the shared JSON reader: the provenance fields, samples that
// read back as the same doubles, and null for values JSON cannot carry.
#include "perfeng/measure/bench_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfeng/common/json.hpp"

namespace {

using pe::JsonValue;
using Kind = pe::JsonValue::Kind;

JsonValue parsed(const pe::BenchReport& report) {
  return pe::json_parse(report.to_json(), "report");
}

const JsonValue& member(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error(std::string("no key ") + key);
  return *m;
}

TEST(BenchReport, CarriesSchemaBenchAndMachineProvenance) {
  pe::BenchReport report("demo \"bench\"");
  report.set_machine("host-a", "0123456789abcdef");
  report.set_context("pool_threads", 4);
  report.add_metric("t", "s", {1.0, 2.0});
  const JsonValue doc = parsed(report);
  EXPECT_EQ(member(doc, "schema").text, "pe-bench-v1");
  EXPECT_EQ(member(doc, "bench").text, "demo \"bench\"");
  EXPECT_EQ(member(doc, "machine").text, "host-a");
  EXPECT_EQ(member(doc, "calibration_hash").text, "0123456789abcdef");
  EXPECT_EQ(member(member(doc, "context"), "pool_threads").as_uint(), 4u);
  const JsonValue& metrics = member(doc, "metrics");
  ASSERT_EQ(metrics.array.size(), 1u);
  EXPECT_EQ(member(metrics.array[0], "name").text, "t");
  EXPECT_EQ(member(metrics.array[0], "unit").text, "s");
  EXPECT_EQ(member(metrics.array[0], "median").number, 1.5);
}

TEST(BenchReport, SamplesReadBackAsTheSameDoubles) {
  const std::vector<double> samples = {0.123456789, 1.0 / 3.0, 4523841234.567,
                                       1e-9 * 7.0, 12345678.9};
  pe::BenchReport report("exact");
  report.add_metric("t", "s", samples);
  report.set_context("ratio", 2.0 / 3.0);
  const JsonValue doc = parsed(report);
  const JsonValue& metric = member(doc, "metrics").array.at(0);
  const JsonValue& back = member(metric, "samples");
  ASSERT_EQ(back.array.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(back.array[i].number, samples[i]) << back.array[i].text;
  EXPECT_EQ(member(metric, "mean").number,
            report.metrics()[0].summary.mean);
  EXPECT_EQ(member(member(doc, "context"), "ratio").number, 2.0 / 3.0);
}

TEST(BenchReport, NonFiniteValuesAreWrittenAsNull) {
  pe::BenchReport report("nan");
  report.add_scalar("ratio", "x", std::nan(""));
  report.set_context("inf", HUGE_VAL);
  const JsonValue doc = parsed(report);
  const JsonValue& metric = member(doc, "metrics").array.at(0);
  ASSERT_EQ(member(metric, "samples").array.size(), 1u);
  EXPECT_EQ(member(metric, "samples").array[0].kind, Kind::kNull);
  EXPECT_EQ(member(metric, "mean").kind, Kind::kNull);
  EXPECT_EQ(member(member(doc, "context"), "inf").kind, Kind::kNull);
}

}  // namespace
