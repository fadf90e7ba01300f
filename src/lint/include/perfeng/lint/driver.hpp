#pragma once

/// \file driver.hpp
/// Scanning and orchestration: load + lex the tree, run a pass list,
/// collect structured results. The CLI in tools/perfeng_lint.cpp is a
/// thin shell over this.

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfeng/lint/finding.hpp"
#include "perfeng/lint/pass.hpp"
#include "perfeng/lint/source.hpp"

namespace pe::lint {

struct ScanOptions {
  std::filesystem::path root;
  /// Top-level directories to scan (relative to root).
  std::vector<std::string> dirs = {"src", "tests", "bench", "examples",
                                   "tools"};
  /// Path substrings to skip — lint self-test fixtures contain deliberate
  /// defects and must not lint the real tree red.
  std::vector<std::string> skip_substrings = {"lint_fixtures"};
};

/// Load and lex every .cpp/.hpp/.h under the scan roots. Deterministic
/// (sorted) order. Throws pe::Error on unreadable files.
[[nodiscard]] std::vector<SourceFile> load_sources(const ScanOptions& opts);

struct LintResult {
  std::vector<Finding> findings;  ///< sorted
  std::vector<RuleInfo> rules;    ///< every pass that ran
  std::size_t files_scanned = 0;
};

/// Run `passes` over already-loaded sources.
[[nodiscard]] LintResult run_passes(
    const std::vector<SourceFile>& files,
    const std::vector<std::unique_ptr<Pass>>& passes);

/// Convenience: scan `opts` and run the full default catalog (optionally
/// filtered to `only_rules` ids).
[[nodiscard]] LintResult lint_repo(
    const ScanOptions& opts,
    const std::vector<std::string>& only_rules = {});

}  // namespace pe::lint
