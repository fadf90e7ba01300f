#pragma once

/// \file finding.hpp
/// The structured currency of pe::lint.
///
/// Every pass produces `Finding`s — never raw text — so one analysis run
/// can be rendered as a terminal listing, line-JSON for scripting, or
/// SARIF 2.1.0 for CI annotation (perfeng/lint/render.hpp), and diffed
/// against a checked-in baseline (perfeng/lint/baseline.hpp) so CI fails
/// only on *new* findings while a backlog burns down.

#include <cstddef>
#include <string>
#include <vector>

namespace pe::lint {

/// SARIF-aligned severity ladder. `kError` findings are contract breaks
/// (a header without #pragma once, OS randomness, raw intrinsics outside
/// pe::simd); `kWarning` is the default for style/hygiene rules and spin
/// loops; `kNote` is advisory.
enum class Severity { kNote, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity s) noexcept;

/// One diagnostic from one pass.
struct Finding {
  std::string file;      ///< repo-relative path, forward slashes
  std::size_t line = 0;  ///< 1-based; 0 = whole file
  std::string rule;      ///< stable rule id, e.g. "wait-loop"
  Severity severity = Severity::kWarning;
  std::string message;   ///< what is wrong, with specifics
  std::string fix_hint;  ///< how to fix it (may be empty)
};

/// Stable identity used for baseline matching. Deliberately excludes the
/// line number: findings must survive unrelated edits shifting code up or
/// down, or the baseline would churn on every PR.
[[nodiscard]] std::string finding_key(const Finding& f);

/// Deterministic order: file, then line, then rule, then message.
void sort_findings(std::vector<Finding>& findings);

}  // namespace pe::lint
