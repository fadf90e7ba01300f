#include "perfeng/measure/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"

namespace pe {

namespace {

/// JSON-safe number rendering: 6 significant digits, integral values
/// without a fractional part, non-finite values as null (JSON has no NaN).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

BenchReport::BenchReport(std::string bench) : bench_(std::move(bench)) {
  PE_REQUIRE(!bench_.empty(), "bench report needs a name");
}

void BenchReport::set_machine(const machine::Machine& m) {
  machine_name_ = m.name;
  calibration_hash_ = m.calibration_hash();
}

void BenchReport::set_machine(std::string name, std::string calibration_hash) {
  machine_name_ = std::move(name);
  calibration_hash_ = std::move(calibration_hash);
}

void BenchReport::set_context(const std::string& key, double value) {
  PE_REQUIRE(!key.empty(), "context key must be non-empty");
  for (auto& [k, v] : context_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  context_.emplace_back(key, value);
}

void BenchReport::add_metric(const std::string& name, const std::string& unit,
                             std::vector<double> samples) {
  PE_REQUIRE(!name.empty(), "metric needs a name");
  PE_REQUIRE(!samples.empty(), "metric needs at least one sample");
  BenchMetric m;
  m.name = name;
  m.unit = unit;
  m.summary = summarize(samples);
  m.samples = std::move(samples);
  metrics_.push_back(std::move(m));
}

void BenchReport::add_scalar(const std::string& name, const std::string& unit,
                             double value) {
  add_metric(name, unit, std::vector<double>{value});
}

std::string BenchReport::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"pe-bench-v1\",\n";
  out << "  \"bench\": " << json_quote(bench_) << ",\n";
  out << "  \"machine\": " << json_quote(machine_name_) << ",\n";
  out << "  \"calibration_hash\": " << json_quote(calibration_hash_)
      << ",\n";
  out << "  \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    if (i) out << ", ";
    out << json_quote(context_[i].first) << ": "
        << json_number(context_[i].second);
  }
  out << "},\n";
  out << "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const BenchMetric& m = metrics_[i];
    out << (i ? ",\n    {" : "\n    {");
    out << "\"name\": " << json_quote(m.name)
        << ", \"unit\": " << json_quote(m.unit) << ",\n";
    out << "     \"mean\": " << json_number(m.summary.mean)
        << ", \"median\": " << json_number(m.summary.median)
        << ", \"min\": " << json_number(m.summary.min)
        << ", \"max\": " << json_number(m.summary.max)
        << ", \"stddev\": " << json_number(m.summary.stddev)
        << ", \"p05\": " << json_number(m.summary.p05)
        << ", \"p95\": " << json_number(m.summary.p95) << ",\n";
    out << "     \"samples\": [";
    for (std::size_t s = 0; s < m.samples.size(); ++s) {
      if (s) out << ", ";
      out << json_number(m.samples[s]);
    }
    out << "]}";
  }
  out << (metrics_.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

void BenchReport::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  PE_REQUIRE(static_cast<bool>(out), "cannot open bench report for writing");
  out << to_json();
  PE_REQUIRE(static_cast<bool>(out), "short write of bench report");
}

}  // namespace pe
