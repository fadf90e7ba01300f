#include "perfeng/observe/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"

// Capture format (docs/observability.md): line 1 is a header object, every
// further line is one event object, so offline tooling (jq, python) reads
// it directly:
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

/// One line of a capture, parsed by the shared reader. Unknown keys are
/// skipped (forward compatibility); errors name the capture and its line.
class CaptureLine {
 public:
  CaptureLine(std::string_view line, std::string_view source,
              std::size_t lineno)
      : source_(source), obj_(json_parse(line, source, lineno)) {
    if (obj_.kind != JsonValue::Kind::kObject) fail("expected an object");
  }

  [[noreturn]] void fail(const std::string& what) const {
    json_error(source_, obj_.line, what);
  }

  /// Unsigned integer member `key`, at most `max`, read exactly.
  [[nodiscard]] std::uint64_t number(const std::string& key,
                                     std::uint64_t max = UINT64_MAX) const {
    const JsonValue* v = obj_.find(key);
    if (v == nullptr) fail("missing key '" + key + "'");
    const std::optional<std::uint64_t> u = v->as_uint();
    if (!u || *u > max)
      fail("key '" + key + "' must be an integer from 0 to " +
           std::to_string(max));
    return *u;
  }

  [[nodiscard]] std::uint64_t number_or(const std::string& key,
                                        std::uint64_t fallback,
                                        std::uint64_t max = UINT64_MAX) const {
    return obj_.find(key) == nullptr ? fallback : number(key, max);
  }

  [[nodiscard]] const std::string* string_or_null(
      const std::string& key) const {
    const JsonValue* v = obj_.find(key);
    if (v == nullptr) return nullptr;
    if (v->kind != JsonValue::Kind::kString)
      fail("key '" + key + "' must be a string");
    return &v->text;
  }

  [[nodiscard]] const std::string& string(const std::string& key) const {
    const std::string* s = string_or_null(key);
    if (s == nullptr) fail("missing key '" + key + "'");
    return *s;
  }

 private:
  std::string_view source_;
  JsonValue obj_;
};

TraceEventKind kind_from_name(const CaptureLine& obj) {
  const std::string& name = obj.string("kind");
  for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    if (name == trace_event_kind_name(kind)) return kind;
  }
  obj.fail("unknown event kind '" + name + "'");
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

Trace Trace::load(std::istream& in, std::string_view source) {
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
    const CaptureLine obj(line, source, lineno);
    if (lineno == 1) {
      if (obj.number("pe_trace") != 1)
        obj.fail("unsupported pe_trace version");
      trace.lanes = static_cast<std::size_t>(obj.number("lanes", SIZE_MAX));
      trace.recorded = obj.number("recorded");
      trace.dropped = obj.number("dropped");
      continue;
    }
    TraceRecord e;
    e.ns = obj.number("ns");
    e.kind = kind_from_name(obj);
    e.lane = static_cast<std::uint32_t>(obj.number("lane", UINT32_MAX));
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
      e.line = static_cast<std::uint32_t>(obj.number_or("line", 0, UINT32_MAX));
    } else {
      file_of_event.push_back(files_in_order.size());  // sentinel: none
    }
    trace.events.push_back(e);
  }
  if (lineno == 0) throw Error(std::string(source) + ": empty input");
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
  return load(in, path);
}

}  // namespace pe::observe
