#include "perfeng/machine/machine.hpp"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"

namespace pe::machine {

namespace {

// --- DOM -> Machine mapping ------------------------------------------------
// Errors read "machine: <source>: line N: what", the same form as the CSV
// and Matrix Market loaders.

double as_number(std::string_view src, const JsonValue& v,
                 const std::string& key) {
  if (v.kind != JsonValue::Kind::kNumber)
    json_error(src, v.line,
               "key '" + key + "' must be a number, got " + v.kind_name());
  return v.number;
}

std::string as_string(std::string_view src, const JsonValue& v,
                      const std::string& key) {
  if (v.kind != JsonValue::Kind::kString)
    json_error(src, v.line,
               "key '" + key + "' must be a string, got " + v.kind_name());
  return v.text;
}

std::uint64_t as_uint(std::string_view src, const JsonValue& v,
                      const std::string& key, std::uint64_t max) {
  (void)as_number(src, v, key);
  const std::optional<std::uint64_t> u = v.as_uint();
  if (!u || *u > max)
    json_error(src, v.line,
               "key '" + key + "' must be an integer from 0 to " +
                   std::to_string(max));
  return *u;
}

const JsonValue& as_object(std::string_view src, const JsonValue& v,
                           const std::string& key) {
  if (v.kind != JsonValue::Kind::kObject)
    json_error(src, v.line, "key '" + key + "' must be an object");
  return v;
}

MemoryLevel level_from_value(std::string_view src, const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject)
    json_error(src, v.line, "hierarchy entries must be objects");
  MemoryLevel level;
  bool saw_name = false, saw_bandwidth = false;
  for (const auto& [key, item] : v.object) {
    if (key == "level") {
      level.name = as_string(src, item, key);
      saw_name = true;
    } else if (key == "bandwidth") {
      level.bandwidth = as_number(src, item, key);
      saw_bandwidth = true;
    } else if (key == "latency") {
      level.latency = as_number(src, item, key);
    } else if (key == "capacity") {
      level.capacity = as_uint(src, item, key, SIZE_MAX);
    } else if (key == "line_bytes") {
      level.line_bytes = as_uint(src, item, key, SIZE_MAX);
    } else {
      json_error(src, item.line, "unknown hierarchy key '" + key + "'");
    }
  }
  if (!saw_name) json_error(src, v.line, "hierarchy entry missing 'level'");
  if (!saw_bandwidth)
    json_error(src, v.line, "hierarchy entry missing 'bandwidth'");
  return level;
}

}  // namespace

const MemoryLevel& Machine::dram() const {
  PE_REQUIRE(!hierarchy.empty(), "machine has no memory hierarchy");
  return hierarchy.back();
}

const MemoryLevel& Machine::fastest() const {
  PE_REQUIRE(!hierarchy.empty(), "machine has no memory hierarchy");
  return hierarchy.front();
}

std::size_t Machine::largest_cache_bytes() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i + 1 < hierarchy.size(); ++i)
    if (hierarchy[i].capacity > best) best = hierarchy[i].capacity;
  return best > 0 ? best : (std::size_t{1} << 21);
}

double Machine::ridge_intensity() const {
  const double bw = dram_bandwidth();
  return bw > 0.0 ? peak_flops / bw : 0.0;
}

void Machine::check() const {
  PE_REQUIRE(!name.empty(), "machine needs a name");
  PE_REQUIRE(peak_flops > 0.0, "peak FLOP/s must be positive");
  PE_REQUIRE(cores >= 1, "machine needs at least one core");
  PE_REQUIRE(!hierarchy.empty(), "machine needs a memory hierarchy");
  PE_REQUIRE(static_watts >= 0.0 && peak_dynamic_watts >= 0.0,
             "energy coefficients must be non-negative");
  PE_REQUIRE(link_alpha >= 0.0 && link_beta >= 0.0,
             "link coefficients must be non-negative");
  PE_REQUIRE(sched_submit_ns >= 0.0 && sched_bulk_ns >= 0.0,
             "scheduler dispatch costs must be non-negative");
  PE_REQUIRE(simd_width_bits % 64 == 0,
             "SIMD width must be a whole number of 64-bit lanes");
  PE_REQUIRE(!simd_fma || simd_width_bits > 0,
             "FMA without a SIMD width is not a calibration this layer "
             "can represent");
  std::vector<MemoryLevel> seen;
  seen.reserve(hierarchy.size());
  for (std::size_t i = 0; i < hierarchy.size(); ++i) {
    const MemoryLevel& level = hierarchy[i];
    PE_REQUIRE(!level.name.empty(), "hierarchy level needs a name");
    require_unique_name(seen, level.name, "hierarchy level");
    seen.push_back(level);
    PE_REQUIRE(level.bandwidth > 0.0, "level bandwidth must be positive");
    PE_REQUIRE(level.latency >= 0.0, "level latency must be non-negative");
    PE_REQUIRE(level.line_bytes > 0, "level line size must be positive");
    const bool last = i + 1 == hierarchy.size();
    PE_REQUIRE(last || level.capacity > 0,
               "cache level needs a capacity (0 is only valid for the "
               "last level)");
    if (i > 0) {
      const MemoryLevel& faster = hierarchy[i - 1];
      PE_REQUIRE(level.bandwidth <= faster.bandwidth,
                 "hierarchy bandwidth must not increase toward memory");
      PE_REQUIRE(level.capacity == 0 || faster.capacity == 0 ||
                     level.capacity > faster.capacity,
                 "hierarchy capacity must increase toward memory");
      PE_REQUIRE(level.latency == 0.0 || faster.latency == 0.0 ||
                     level.latency >= faster.latency,
                 "hierarchy latency must not decrease toward memory");
    }
  }
}

std::string Machine::summary() const {
  std::ostringstream ss;
  ss << name << ": peak " << format_flops(peak_flops) << "/core x " << cores
     << ", DRAM " << format_bandwidth(dram_bandwidth()) << ", ridge "
     << format_sig(ridge_intensity(), 3) << " FLOP/B";
  for (std::size_t i = 0; i + 1 < hierarchy.size(); ++i) {
    ss << ", " << hierarchy[i].name << " "
       << format_bytes(hierarchy[i].capacity);
  }
  return ss.str();
}

std::string Machine::calibration_hash() const {
  // FNV-1a over the canonical JSON form: platform-stable, and any change
  // to any calibrated number changes the hash.
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(to_json(*this))));
  return buf;
}

std::string to_json(const Machine& m) {
  std::ostringstream ss;
  ss << "{\n";
  ss << "  \"name\": " << json_quote(m.name) << ",\n";
  ss << "  \"description\": " << json_quote(m.description) << ",\n";
  ss << "  \"source\": " << json_quote(m.source) << ",\n";
  ss << "  \"peak_flops\": " << json_double(m.peak_flops) << ",\n";
  ss << "  \"cores\": " << m.cores << ",\n";
  ss << "  \"hierarchy\": [";
  for (std::size_t i = 0; i < m.hierarchy.size(); ++i) {
    const MemoryLevel& level = m.hierarchy[i];
    ss << (i == 0 ? "\n" : ",\n");
    ss << "    { \"level\": " << json_quote(level.name)
       << ", \"bandwidth\": " << json_double(level.bandwidth)
       << ", \"latency\": " << json_double(level.latency)
       << ", \"capacity\": " << level.capacity
       << ", \"line_bytes\": " << level.line_bytes << " }";
  }
  ss << "\n  ]";
  if (m.has_energy()) {
    ss << ",\n  \"energy\": { \"static_watts\": "
       << json_double(m.static_watts) << ", \"peak_dynamic_watts\": "
       << json_double(m.peak_dynamic_watts) << " }";
  }
  if (m.has_link()) {
    ss << ",\n  \"link\": { \"alpha\": " << json_double(m.link_alpha)
       << ", \"beta\": " << json_double(m.link_beta) << " }";
  }
  if (m.has_scheduler()) {
    ss << ",\n  \"scheduler\": { \"submit_ns\": "
       << json_double(m.sched_submit_ns)
       << ", \"bulk_ns\": " << json_double(m.sched_bulk_ns) << " }";
  }
  if (m.has_simd()) {
    ss << ",\n  \"simd\": { \"width_bits\": " << m.simd_width_bits
       << ", \"fma\": " << (m.simd_fma ? "true" : "false") << " }";
  }
  ss << "\n}\n";
  return ss.str();
}

Machine from_json(std::string_view text, std::string_view source) {
  const std::string src = "machine: " + std::string(source);
  const JsonValue doc = json_parse(text, src);
  if (doc.kind != JsonValue::Kind::kObject)
    json_error(src, doc.line, "machine file must be a JSON object");

  Machine m;
  bool saw_name = false, saw_peak = false, saw_hierarchy = false;
  for (const auto& [key, v] : doc.object) {
    if (key == "name") {
      m.name = as_string(src, v, key);
      saw_name = true;
    } else if (key == "description") {
      m.description = as_string(src, v, key);
    } else if (key == "source") {
      m.source = as_string(src, v, key);
    } else if (key == "peak_flops") {
      m.peak_flops = as_number(src, v, key);
      saw_peak = true;
    } else if (key == "cores") {
      m.cores = static_cast<unsigned>(as_uint(src, v, key, UINT_MAX));
    } else if (key == "hierarchy") {
      if (v.kind != JsonValue::Kind::kArray)
        json_error(src, v.line, "key 'hierarchy' must be an array");
      for (const JsonValue& item : v.array)
        m.hierarchy.push_back(level_from_value(src, item));
      saw_hierarchy = true;
    } else if (key == "energy") {
      for (const auto& [ekey, ev] : as_object(src, v, key).object) {
        if (ekey == "static_watts") {
          m.static_watts = as_number(src, ev, ekey);
        } else if (ekey == "peak_dynamic_watts") {
          m.peak_dynamic_watts = as_number(src, ev, ekey);
        } else {
          json_error(src, ev.line, "unknown energy key '" + ekey + "'");
        }
      }
    } else if (key == "link") {
      for (const auto& [lkey, lv] : as_object(src, v, key).object) {
        if (lkey == "alpha") {
          m.link_alpha = as_number(src, lv, lkey);
        } else if (lkey == "beta") {
          m.link_beta = as_number(src, lv, lkey);
        } else {
          json_error(src, lv.line, "unknown link key '" + lkey + "'");
        }
      }
    } else if (key == "simd") {
      for (const auto& [mkey, mv] : as_object(src, v, key).object) {
        if (mkey == "width_bits") {
          m.simd_width_bits =
              static_cast<unsigned>(as_uint(src, mv, mkey, UINT_MAX));
        } else if (mkey == "fma") {
          if (mv.kind != JsonValue::Kind::kBool)
            json_error(src, mv.line,
                       "key 'fma' must be a bool, got " +
                           std::string(mv.kind_name()));
          m.simd_fma = mv.boolean;
        } else {
          json_error(src, mv.line, "unknown simd key '" + mkey + "'");
        }
      }
    } else if (key == "scheduler") {
      for (const auto& [skey, sv] : as_object(src, v, key).object) {
        if (skey == "submit_ns") {
          m.sched_submit_ns = as_number(src, sv, skey);
        } else if (skey == "bulk_ns") {
          m.sched_bulk_ns = as_number(src, sv, skey);
        } else {
          json_error(src, sv.line, "unknown scheduler key '" + skey + "'");
        }
      }
    } else {
      json_error(src, v.line, "unknown key '" + key + "'");
    }
  }
  if (!saw_name) json_error(src, doc.line, "missing required key 'name'");
  if (!saw_peak)
    json_error(src, doc.line, "missing required key 'peak_flops'");
  if (!saw_hierarchy)
    json_error(src, doc.line, "missing required key 'hierarchy'");
  m.check();
  return m;
}

void save_json_file(const Machine& m, const std::string& path) {
  m.check();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("machine: cannot open '" + path + "' for writing");
  const std::string text = to_json(m);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw Error("machine: failed writing '" + path + "'");
}

Machine load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("machine: cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_json(ss.str(), path);
}

}  // namespace pe::machine
