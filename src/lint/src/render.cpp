#include "perfeng/lint/render.hpp"

#include <sstream>

#include "perfeng/common/json.hpp"

namespace pe::lint {

std::string render_text(const std::vector<Finding>& findings,
                        std::size_t files_scanned) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << f.file << ':' << f.line << ": [" << f.rule << "] "
       << severity_name(f.severity) << ": " << f.message << '\n';
    if (!f.fix_hint.empty()) os << "    fix: " << f.fix_hint << '\n';
  }
  os << "perfeng-lint: " << findings.size() << " finding"
     << (findings.size() == 1 ? "" : "s") << " across " << files_scanned
     << " files\n";
  return os.str();
}

std::string render_jsonl(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
       << ",\"rule\":\"" << json_escape(f.rule) << "\",\"severity\":\""
       << severity_name(f.severity) << "\",\"message\":\""
       << json_escape(f.message) << "\",\"fix_hint\":\""
       << json_escape(f.fix_hint) << "\"}\n";
  }
  return os.str();
}

namespace {

const char* sarif_level(Severity s) noexcept {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "warning";
}

}  // namespace

std::string render_sarif(const std::vector<Finding>& findings,
                         const std::vector<RuleInfo>& rules) {
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
        "Schemata/sarif-schema-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"perfeng-lint\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/perfeng/docs/lint.md\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleInfo& r = rules[i];
    os << "            {\"id\": \"" << json_escape(r.id)
       << "\", \"shortDescription\": {\"text\": \"" << json_escape(r.summary)
       << "\"}, \"defaultConfiguration\": {\"level\": \""
       << sarif_level(r.severity) << "\"}}"
       << (i + 1 < rules.size() ? "," : "") << '\n';
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    // ruleIndex into the driver rules array, if present.
    long rule_index = -1;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (rules[r].id == f.rule) {
        rule_index = static_cast<long>(r);
        break;
      }
    }
    os << "        {\"ruleId\": \"" << json_escape(f.rule) << "\"";
    if (rule_index >= 0) os << ", \"ruleIndex\": " << rule_index;
    os << ", \"level\": \"" << sarif_level(f.severity)
       << "\", \"message\": {\"text\": \"" << json_escape(f.message);
    if (!f.fix_hint.empty()) os << " (fix: " << json_escape(f.fix_hint) << ")";
    os << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << json_escape(f.file)
       << "\"}, \"region\": {\"startLine\": " << (f.line == 0 ? 1 : f.line)
       << "}}}]}" << (i + 1 < findings.size() ? "," : "") << '\n';
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

}  // namespace pe::lint
