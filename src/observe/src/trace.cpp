#include "perfeng/observe/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"

// Capture format (docs/observability.md): line 1 is a header object, every
// further line is one event object. Flat objects, fixed keys, no nesting —
// a deliberate subset of JSON so offline tooling (jq, python) reads it
// directly while the in-repo parser stays a page long:
//
//   {"pe_trace":1,"lanes":9,"recorded":1234,"dropped":0,"events":1234}
//   {"ns":17,"kind":"chunk_start","lane":3,"obj":"0x7ffd","a":0,"b":128,
//    "file":"bench/x.cpp","line":42}

namespace pe::observe {

std::size_t Trace::count(TraceEventKind kind) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const TraceRecord& e) { return e.kind == kind; }));
}

namespace {

void write_event(std::ostream& out, const TraceRecord& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"ns\":%" PRIu64 ",\"kind\":\"%s\",\"lane\":%u,"
                "\"obj\":\"%p\",\"a\":%" PRIu64 ",\"b\":%" PRIu64,
                e.ns, trace_event_kind_name(e.kind), e.lane,
                e.obj, e.a, e.b);
  out << buf;
  if (e.file != nullptr) {
    out << ",\"file\":" << json_quote(e.file) << ",\"line\":" << e.line;
  }
  out << "}\n";
}

/// Minimal scanner for one flat JSON object line: fills string and number
/// fields keyed by name. Unknown keys are skipped (forward compatibility).
class FlatObject {
 public:
  FlatObject(std::string_view line, std::size_t lineno) {
    std::size_t i = skip_ws(line, 0);
    if (i >= line.size() || line[i] != '{') fail(lineno, "expected '{'");
    ++i;
    for (;;) {
      i = skip_ws(line, i);
      if (i < line.size() && line[i] == '}') return;
      if (i >= line.size() || line[i] != '"')
        fail(lineno, "expected a quoted key");
      std::string key;
      i = read_string(line, i, lineno, key);
      i = skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') fail(lineno, "expected ':'");
      i = skip_ws(line, i + 1);
      if (i < line.size() && line[i] == '"') {
        std::string value;
        i = read_string(line, i, lineno, value);
        strings_[key] = std::move(value);
      } else {
        const std::size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
        std::uint64_t v = 0;
        const std::string digits(line.substr(start, i - start));
        if (std::sscanf(digits.c_str(), "%" SCNu64, &v) != 1)
          fail(lineno, "expected a number for key '" + key + "'");
        numbers_[key] = v;
      }
      i = skip_ws(line, i);
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') return;
      fail(lineno, "expected ',' or '}'");
    }
  }

  [[nodiscard]] std::uint64_t number(const std::string& key,
                                     std::size_t lineno) const {
    const auto it = numbers_.find(key);
    if (it == numbers_.end()) fail(lineno, "missing key '" + key + "'");
    return it->second;
  }

  [[nodiscard]] std::uint64_t number_or(const std::string& key,
                                        std::uint64_t fallback) const {
    const auto it = numbers_.find(key);
    return it == numbers_.end() ? fallback : it->second;
  }

  [[nodiscard]] const std::string* string_or_null(
      const std::string& key) const {
    const auto it = strings_.find(key);
    return it == strings_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::string& string(const std::string& key,
                                          std::size_t lineno) const {
    const std::string* s = string_or_null(key);
    if (s == nullptr) fail(lineno, "missing key '" + key + "'");
    return *s;
  }

 private:
  [[noreturn]] static void fail(std::size_t lineno, const std::string& what) {
    throw Error("trace capture line " + std::to_string(lineno) + ": " + what);
  }

  static std::size_t skip_ws(std::string_view s, std::size_t i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    return i;
  }

  static std::size_t read_string(std::string_view s, std::size_t i,
                                 std::size_t lineno, std::string& out) {
    ++i;  // opening quote
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        i = json_unescape(s, i, out);
        if (i == std::string_view::npos) fail(lineno, "bad escape in string");
      } else {
        out.push_back(s[i]);
        ++i;
      }
    }
    if (i >= s.size()) fail(lineno, "unterminated string");
    return i + 1;  // closing quote
  }

  std::map<std::string, std::uint64_t> numbers_;
  std::map<std::string, std::string> strings_;
};

TraceEventKind kind_from_name(const std::string& name, std::size_t lineno) {
  for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    if (name == trace_event_kind_name(kind)) return kind;
  }
  throw Error("trace capture line " + std::to_string(lineno) +
              ": unknown event kind '" + name + "'");
}

}  // namespace

void Trace::save(std::ostream& out) const {
  out << "{\"pe_trace\":1,\"lanes\":" << lanes << ",\"recorded\":" << recorded
      << ",\"dropped\":" << dropped << ",\"events\":" << events.size()
      << "}\n";
  for (const TraceRecord& e : events) write_event(out, e);
}

void Trace::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open trace capture '" + path + "' to write");
  save(out);
}

Trace Trace::load(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  // Interned provenance strings: many events share the same site, and the
  // records carry raw pointers, so alias them into one owning pool.
  std::map<std::string, std::size_t> interned;
  // Reserve generously: the pool must never reallocate once a record
  // points into it, so the deque-like guarantee comes from indexing after
  // the full parse instead.
  std::vector<std::string> files_in_order;
  std::vector<std::size_t> file_of_event;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const FlatObject obj(line, lineno);
    if (lineno == 1) {
      if (obj.number("pe_trace", lineno) != 1)
        throw Error("trace capture: unsupported pe_trace version");
      trace.lanes = static_cast<std::size_t>(obj.number("lanes", lineno));
      trace.recorded = obj.number("recorded", lineno);
      trace.dropped = obj.number("dropped", lineno);
      continue;
    }
    TraceRecord e;
    e.ns = obj.number("ns", lineno);
    e.kind = kind_from_name(obj.string("kind", lineno), lineno);
    e.lane = static_cast<std::uint32_t>(obj.number("lane", lineno));
    e.a = obj.number_or("a", 0);
    e.b = obj.number_or("b", 0);
    if (const std::string* objkey = obj.string_or_null("obj")) {
      std::uint64_t ptr = 0;
      std::sscanf(objkey->c_str(), "%" SCNx64, &ptr);
      e.obj = reinterpret_cast<const void*>(  // NOLINT: correlation key only
          static_cast<std::uintptr_t>(ptr));
    }
    if (const std::string* file = obj.string_or_null("file")) {
      const auto it = interned.find(*file);
      std::size_t idx;
      if (it == interned.end()) {
        idx = files_in_order.size();
        files_in_order.push_back(*file);
        interned.emplace(*file, idx);
      } else {
        idx = it->second;
      }
      file_of_event.push_back(idx);
      e.line = static_cast<std::uint32_t>(obj.number_or("line", 0));
    } else {
      file_of_event.push_back(files_in_order.size());  // sentinel: none
    }
    trace.events.push_back(e);
  }
  if (lineno == 0) throw Error("trace capture: empty input");
  // Fix up provenance pointers now that the pool is complete and stable.
  trace.string_pool = std::move(files_in_order);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const std::size_t idx = file_of_event[i];
    trace.events[i].file =
        idx < trace.string_pool.size() ? trace.string_pool[idx].c_str()
                                       : nullptr;
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceRecord& x, const TraceRecord& y) {
                     return x.ns < y.ns;
                   });
  return trace;
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open trace capture '" + path + "'");
  return load(in);
}

}  // namespace pe::observe
