// perfeng-lint CLI: a thin shell over the pe::lint library (src/lint).
//
// The rule catalog, lexer, pass framework, renderers, and baseline logic
// all live in the library; this file only parses flags.
// See docs/lint.md for the pass catalog, waiver grammar, and the
// baseline workflow.
//
// Usage:
//   perfeng_lint <repo-root> [options]
//   perfeng_lint --list-checks
//
// Options:
//   --format text|jsonl|sarif   output format (default text)
//   --sarif                     shorthand for --format sarif
//   --out FILE                  write the report to FILE instead of stdout
//   --baseline FILE             fail only on findings not in the baseline
//   --write-baseline FILE       write current findings as the new baseline
//   --rule NAME                 run only this rule (repeatable)
//
// Exit code: 0 clean (or all findings baselined), 1 new findings,
// 2 usage/IO error.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/lint/baseline.hpp"
#include "perfeng/lint/driver.hpp"
#include "perfeng/lint/render.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: perfeng_lint <repo-root> [--format text|jsonl|sarif] "
         "[--sarif]\n"
         "                    [--out FILE] [--baseline FILE]\n"
         "                    [--write-baseline FILE] [--rule NAME]...\n"
         "       perfeng_lint --list-checks\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--list-checks") {
    for (const auto& pass : pe::lint::default_passes())
      std::cout << pass->rule().id << "\n";
    return 0;
  }

  std::string root;
  std::string format = "text";
  std::string out_file;
  std::string baseline_file;
  std::string write_baseline_file;
  std::vector<std::string> only_rules;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    if (a == "--sarif") {
      format = "sarif";
    } else if (a == "--format") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      format = *v;
    } else if (a == "--out") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      out_file = *v;
    } else if (a == "--baseline") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      baseline_file = *v;
    } else if (a == "--write-baseline") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      write_baseline_file = *v;
    } else if (a == "--rule") {
      const std::string* v = next();
      if (v == nullptr) return usage();
      only_rules.push_back(*v);
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else if (root.empty()) {
      root = a;
    } else {
      return usage();
    }
  }
  if (root.empty()) return usage();
  if (format != "text" && format != "jsonl" && format != "sarif")
    return usage();
  if (!std::filesystem::is_directory(root)) {
    std::cerr << "perfeng_lint: not a directory: " << root << "\n";
    return 2;
  }

  try {
    pe::lint::ScanOptions opts;
    opts.root = root;
    const pe::lint::LintResult result = pe::lint::lint_repo(opts, only_rules);

    if (!write_baseline_file.empty()) {
      std::ofstream out(write_baseline_file);
      if (!out) {
        std::cerr << "perfeng_lint: cannot write " << write_baseline_file
                  << "\n";
        return 2;
      }
      out << pe::lint::Baseline::serialize(result.findings);
      std::cout << "perfeng-lint: wrote baseline (" << result.findings.size()
                << " findings) to " << write_baseline_file << "\n";
      return 0;
    }

    std::vector<pe::lint::Finding> gated = result.findings;
    if (!baseline_file.empty()) {
      const pe::lint::Baseline baseline =
          pe::lint::Baseline::load(baseline_file);
      gated = baseline.new_findings(result.findings);
    }

    std::string report;
    if (format == "sarif") {
      report = pe::lint::render_sarif(gated, result.rules);
    } else if (format == "jsonl") {
      report = pe::lint::render_jsonl(gated);
    } else {
      report = pe::lint::render_text(gated, result.files_scanned);
      if (!baseline_file.empty() && gated.size() != result.findings.size())
        report += "perfeng-lint: " +
                  std::to_string(result.findings.size() - gated.size()) +
                  " baselined finding(s) suppressed\n";
    }

    if (!out_file.empty()) {
      std::ofstream out(out_file);
      if (!out) {
        std::cerr << "perfeng_lint: cannot write " << out_file << "\n";
        return 2;
      }
      out << report;
      std::cout << "perfeng-lint: " << gated.size()
                << " gated finding(s); report written to " << out_file
                << "\n";
    } else {
      std::cout << report;
    }
    return gated.empty() ? 0 : 1;
  } catch (const pe::Error& e) {
    std::cerr << "perfeng_lint: " << e.what() << "\n";
    return 2;
  }
}
