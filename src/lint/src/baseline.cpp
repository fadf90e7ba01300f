#include "perfeng/lint/baseline.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"

namespace pe::lint {

namespace {

/// Extract the string value of `"key": "..."` from a single-line JSON
/// object. Returns false if the key is absent or the value malformed.
bool extract_string(const std::string& line, const std::string& key,
                    std::string& out) {
  const std::string needle = "\"" + key + "\":";
  std::size_t p = line.find(needle);
  if (p == std::string::npos) return false;
  p += needle.size();
  while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
  if (p >= line.size() || line[p] != '"') return false;
  ++p;
  out.clear();
  while (p < line.size()) {
    const char c = line[p];
    if (c == '\\') {
      p = json_unescape(line, p, out);
      if (p == std::string::npos) return false;
      continue;
    }
    if (c == '"') return true;
    out.push_back(c);
    ++p;
  }
  return false;
}

bool extract_number(const std::string& line, const std::string& key,
                    std::size_t& out) {
  const std::string needle = "\"" + key + "\":";
  std::size_t p = line.find(needle);
  if (p == std::string::npos) return false;
  p += needle.size();
  while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
  std::size_t e = p;
  while (e < line.size() && std::isdigit(static_cast<unsigned char>(line[e])))
    ++e;
  if (e == p) return false;
  out = static_cast<std::size_t>(std::stoull(line.substr(p, e - p)));
  return true;
}

}  // namespace

Baseline Baseline::load(const std::filesystem::path& path) {
  Baseline b;
  std::ifstream in(path);
  if (!in) return b;  // missing baseline: everything is new
  std::size_t lineno = 0;
  for (std::string line; std::getline(in, line);) {
    ++lineno;
    if (line.find("\"rule\"") == std::string::npos) continue;
    std::string rule;
    std::string file;
    std::string message;
    std::size_t count = 1;
    if (!extract_string(line, "rule", rule) ||
        !extract_string(line, "file", file) ||
        !extract_string(line, "message", message)) {
      throw pe::Error("malformed baseline entry at " + path.string() + ":" +
                      std::to_string(lineno));
    }
    extract_number(line, "count", count);
    Finding f;
    f.rule = rule;
    f.file = file;
    f.message = message;
    b.counts_[finding_key(f)] += count;
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
