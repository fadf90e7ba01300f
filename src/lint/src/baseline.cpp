#include "perfeng/lint/baseline.hpp"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"

namespace pe::lint {

Baseline Baseline::load(const std::filesystem::path& path) {
  Baseline b;
  std::ifstream in(path);
  if (!in) return b;  // missing baseline: everything is new
  std::ostringstream text;
  text << in.rdbuf();
  const std::string source = path.string();
  const JsonValue doc = json_parse(text.str(), source);
  const JsonValue* entries = doc.find("entries");
  if (doc.kind != JsonValue::Kind::kObject || entries == nullptr ||
      entries->kind != JsonValue::Kind::kArray)
    json_error(source, doc.line, "baseline needs an \"entries\" array");
  for (const JsonValue& entry : entries->array) {
    const auto field = [&](const char* key) -> const std::string& {
      const JsonValue* v = entry.find(key);
      if (v == nullptr || v->kind != JsonValue::Kind::kString)
        json_error(source, entry.line,
                   std::string("malformed baseline entry: no string '") +
                       key + "'");
      return v->text;
    };
    Finding f;
    f.rule = field("rule");
    f.file = field("file");
    f.message = field("message");
    std::optional<std::uint64_t> count = 1;
    if (const JsonValue* c = entry.find("count")) count = c->as_uint();
    if (!count)
      json_error(source, entry.line,
                 "malformed baseline entry: 'count' must be a "
                 "non-negative integer");
    b.counts_[finding_key(f)] += *count;
  }
  return b;
}

std::string Baseline::serialize(const std::vector<Finding>& findings) {
  // Aggregate counts per identity, keep one representative finding for
  // the printable fields, emit sorted for diff stability.
  std::map<std::string, std::pair<Finding, std::size_t>> agg;
  for (const Finding& f : findings) {
    auto [it, fresh] = agg.try_emplace(finding_key(f), f, 0u);
    ++it->second.second;
    (void)fresh;
  }
  std::ostringstream os;
  os << "{\n"
     << "  \"tool\": \"perfeng-lint\",\n"
     << "  \"note\": \"accepted findings; CI fails only on findings not "
        "listed here. Regenerate with perfeng_lint <root> "
        "--write-baseline <file>\",\n"
     << "  \"entries\": [\n";
  std::size_t i = 0;
  for (const auto& [key, rep] : agg) {
    (void)key;
    const Finding& f = rep.first;
    os << "    {\"rule\":\"" << json_escape(f.rule) << "\",\"file\":\""
       << json_escape(f.file) << "\",\"message\":\"" << json_escape(f.message)
       << "\",\"count\":" << rep.second << "}"
       << (++i < agg.size() ? "," : "") << '\n';
  }
  os << "  ]\n"
     << "}\n";
  return os.str();
}

std::vector<Finding> Baseline::new_findings(
    const std::vector<Finding>& findings) const {
  std::map<std::string, std::size_t> used;
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    const std::string key = finding_key(f);
    const auto it = counts_.find(key);
    const std::size_t budget = it == counts_.end() ? 0 : it->second;
    if (used[key] < budget) {
      ++used[key];
      continue;
    }
    out.push_back(f);
  }
  return out;
}

std::size_t Baseline::total_entries() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, count] : counts_) {
    (void)key;
    n += count;
  }
  return n;
}

}  // namespace pe::lint
