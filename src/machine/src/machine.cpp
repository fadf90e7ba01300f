#include "perfeng/machine/machine.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"

namespace pe::machine {

namespace {

// --- canonical double formatting -------------------------------------------
// Shortest decimal form that round-trips through strtod exactly, so the
// serialized form is both human-readable and lossless, and re-serializing a
// parsed machine is byte-identical (the byte-stability contract).
std::string format_double(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// --- minimal JSON document model -------------------------------------------
// Just enough JSON for machine files, with the 1-based line of every value
// retained so malformed input is reported the way the CSV and Matrix Market
// loaders report it: "<source>: line N: what went wrong".

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;
  std::size_t line = 1;

  [[nodiscard]] const char* kind_name() const {
    switch (kind) {
      case Kind::kNull: return "null";
      case Kind::kBool: return "bool";
      case Kind::kNumber: return "number";
      case Kind::kString: return "string";
      case Kind::kArray: return "array";
      case Kind::kObject: return "object";
    }
    return "?";
  }
};

class Parser {
 public:
  Parser(std::string_view text, std::string_view source)
      : text_(text), source_(source) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document", line_);
    return v;
  }

  [[noreturn]] void fail(const std::string& msg, std::size_t line) const {
    throw Error("machine: " + std::string(source_) + ": line " +
                std::to_string(line) + ": " + msg);
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input", line_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'",
           line_);
    }
    ++pos_;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f' || c == 'n') return parse_keyword();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail(std::string("unexpected character '") + c + "'", line_);
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::kObject;
    v.line = line_;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      Value key = parse_string();
      expect(':');
      Value item = parse_value();
      v.object.emplace_back(std::move(key.text), std::move(item));
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object", line_);
    }
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::kArray;
    v.line = line_;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array", line_);
    }
  }

  Value parse_string() {
    Value v;
    v.kind = Value::Kind::kString;
    if (peek() != '"') fail("expected string", line_);
    v.line = line_;
    ++pos_;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", v.line);
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\n') fail("newline inside string", v.line);
      if (c == '\\') {
        const std::size_t next = json_unescape(text_, pos_ - 1, v.text);
        if (next == std::string_view::npos) {
          const std::string_view bad = text_.substr(pos_ - 1, 2);
          fail("unsupported escape '" + std::string(bad) + "'", v.line);
        }
        pos_ = next;
      } else {
        v.text.push_back(c);
      }
    }
  }

  Value parse_number() {
    Value v;
    v.kind = Value::Kind::kNumber;
    v.line = line_;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || token.empty())
      fail("malformed number '" + token + "'", v.line);
    return v;
  }

  Value parse_keyword() {
    Value v;
    v.line = line_;
    auto match = [&](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
    } else if (match("false")) {
      v.kind = Value::Kind::kBool;
    } else if (match("null")) {
      v.kind = Value::Kind::kNull;
    } else {
      fail("unexpected token", line_);
    }
    return v;
  }

  std::string_view text_;
  std::string_view source_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

// --- DOM -> Machine mapping ------------------------------------------------

double as_number(const Parser& p, const Value& v, const std::string& key) {
  if (v.kind != Value::Kind::kNumber)
    p.fail("key '" + key + "' must be a number, got " + v.kind_name(),
           v.line);
  return v.number;
}

std::string as_string(const Parser& p, const Value& v,
                      const std::string& key) {
  if (v.kind != Value::Kind::kString)
    p.fail("key '" + key + "' must be a string, got " + v.kind_name(),
           v.line);
  return v.text;
}

std::size_t as_size(const Parser& p, const Value& v, const std::string& key) {
  const double d = as_number(p, v, key);
  if (d < 0.0 || d != static_cast<double>(static_cast<std::size_t>(d)))
    p.fail("key '" + key + "' must be a non-negative integer", v.line);
  return static_cast<std::size_t>(d);
}

MemoryLevel level_from_value(const Parser& p, const Value& v) {
  if (v.kind != Value::Kind::kObject)
    p.fail("hierarchy entries must be objects", v.line);
  MemoryLevel level;
  bool saw_name = false, saw_bandwidth = false;
  for (const auto& [key, item] : v.object) {
    if (key == "level") {
      level.name = as_string(p, item, key);
      saw_name = true;
    } else if (key == "bandwidth") {
      level.bandwidth = as_number(p, item, key);
      saw_bandwidth = true;
    } else if (key == "latency") {
      level.latency = as_number(p, item, key);
    } else if (key == "capacity") {
      level.capacity = as_size(p, item, key);
    } else if (key == "line_bytes") {
      level.line_bytes = as_size(p, item, key);
    } else {
      p.fail("unknown hierarchy key '" + key + "'", item.line);
    }
  }
  if (!saw_name) p.fail("hierarchy entry missing 'level'", v.line);
  if (!saw_bandwidth) p.fail("hierarchy entry missing 'bandwidth'", v.line);
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
  const std::string canonical = to_json(*this);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string to_json(const Machine& m) {
  std::ostringstream ss;
  ss << "{\n";
  ss << "  \"name\": " << json_quote(m.name) << ",\n";
  ss << "  \"description\": " << json_quote(m.description) << ",\n";
  ss << "  \"source\": " << json_quote(m.source) << ",\n";
  ss << "  \"peak_flops\": " << format_double(m.peak_flops) << ",\n";
  ss << "  \"cores\": " << m.cores << ",\n";
  ss << "  \"hierarchy\": [";
  for (std::size_t i = 0; i < m.hierarchy.size(); ++i) {
    const MemoryLevel& level = m.hierarchy[i];
    ss << (i == 0 ? "\n" : ",\n");
    ss << "    { \"level\": " << json_quote(level.name)
       << ", \"bandwidth\": " << format_double(level.bandwidth)
       << ", \"latency\": " << format_double(level.latency)
       << ", \"capacity\": " << level.capacity
       << ", \"line_bytes\": " << level.line_bytes << " }";
  }
  ss << "\n  ]";
  if (m.has_energy()) {
    ss << ",\n  \"energy\": { \"static_watts\": "
       << format_double(m.static_watts) << ", \"peak_dynamic_watts\": "
       << format_double(m.peak_dynamic_watts) << " }";
  }
  if (m.has_link()) {
    ss << ",\n  \"link\": { \"alpha\": " << format_double(m.link_alpha)
       << ", \"beta\": " << format_double(m.link_beta) << " }";
  }
  if (m.has_scheduler()) {
    ss << ",\n  \"scheduler\": { \"submit_ns\": "
       << format_double(m.sched_submit_ns)
       << ", \"bulk_ns\": " << format_double(m.sched_bulk_ns) << " }";
  }
  if (m.has_simd()) {
    ss << ",\n  \"simd\": { \"width_bits\": " << m.simd_width_bits
       << ", \"fma\": " << (m.simd_fma ? "true" : "false") << " }";
  }
  ss << "\n}\n";
  return ss.str();
}

Machine from_json(std::string_view text, std::string_view source) {
  Parser parser(text, source);
  const Value doc = parser.parse_document();
  if (doc.kind != Value::Kind::kObject)
    parser.fail("machine file must be a JSON object", doc.line);

  Machine m;
  bool saw_name = false, saw_peak = false, saw_hierarchy = false;
  for (const auto& [key, v] : doc.object) {
    if (key == "name") {
      m.name = as_string(parser, v, key);
      saw_name = true;
    } else if (key == "description") {
      m.description = as_string(parser, v, key);
    } else if (key == "source") {
      m.source = as_string(parser, v, key);
    } else if (key == "peak_flops") {
      m.peak_flops = as_number(parser, v, key);
      saw_peak = true;
    } else if (key == "cores") {
      m.cores = static_cast<unsigned>(as_size(parser, v, key));
    } else if (key == "hierarchy") {
      if (v.kind != Value::Kind::kArray)
        parser.fail("key 'hierarchy' must be an array", v.line);
      for (const Value& item : v.array)
        m.hierarchy.push_back(level_from_value(parser, item));
      saw_hierarchy = true;
    } else if (key == "energy") {
      if (v.kind != Value::Kind::kObject)
        parser.fail("key 'energy' must be an object", v.line);
      for (const auto& [ekey, ev] : v.object) {
        if (ekey == "static_watts") {
          m.static_watts = as_number(parser, ev, ekey);
        } else if (ekey == "peak_dynamic_watts") {
          m.peak_dynamic_watts = as_number(parser, ev, ekey);
        } else {
          parser.fail("unknown energy key '" + ekey + "'", ev.line);
        }
      }
    } else if (key == "link") {
      if (v.kind != Value::Kind::kObject)
        parser.fail("key 'link' must be an object", v.line);
      for (const auto& [lkey, lv] : v.object) {
        if (lkey == "alpha") {
          m.link_alpha = as_number(parser, lv, lkey);
        } else if (lkey == "beta") {
          m.link_beta = as_number(parser, lv, lkey);
        } else {
          parser.fail("unknown link key '" + lkey + "'", lv.line);
        }
      }
    } else if (key == "simd") {
      if (v.kind != Value::Kind::kObject)
        parser.fail("key 'simd' must be an object", v.line);
      for (const auto& [mkey, mv] : v.object) {
        if (mkey == "width_bits") {
          m.simd_width_bits =
              static_cast<unsigned>(as_size(parser, mv, mkey));
        } else if (mkey == "fma") {
          if (mv.kind != Value::Kind::kBool)
            parser.fail("key 'fma' must be a bool, got " +
                            std::string(mv.kind_name()),
                        mv.line);
          m.simd_fma = mv.boolean;
        } else {
          parser.fail("unknown simd key '" + mkey + "'", mv.line);
        }
      }
    } else if (key == "scheduler") {
      if (v.kind != Value::Kind::kObject)
        parser.fail("key 'scheduler' must be an object", v.line);
      for (const auto& [skey, sv] : v.object) {
        if (skey == "submit_ns") {
          m.sched_submit_ns = as_number(parser, sv, skey);
        } else if (skey == "bulk_ns") {
          m.sched_bulk_ns = as_number(parser, sv, skey);
        } else {
          parser.fail("unknown scheduler key '" + skey + "'", sv.line);
        }
      }
    } else {
      parser.fail("unknown key '" + key + "'", v.line);
    }
  }
  if (!saw_name) parser.fail("missing required key 'name'", doc.line);
  if (!saw_peak) parser.fail("missing required key 'peak_flops'", doc.line);
  if (!saw_hierarchy)
    parser.fail("missing required key 'hierarchy'", doc.line);
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
