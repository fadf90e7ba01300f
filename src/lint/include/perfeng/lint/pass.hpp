#pragma once

/// \file pass.hpp
/// The pass framework: one rule = one pass = one `RuleInfo`.
///
/// A pass sees every lexed file of the scan and appends structured
/// findings. `default_passes()` is the shipped catalog; the CLI can filter
/// it by rule id. Include layering, dependency cycles and lock order are
/// not lint rules: the compiler, CMake and ThreadSanitizer check them on
/// the real program (docs/lint.md).

#include <memory>
#include <string>
#include <vector>

#include "perfeng/lint/finding.hpp"
#include "perfeng/lint/source.hpp"

namespace pe::lint {

/// Static metadata of a rule, also rendered into the SARIF rules array.
struct RuleInfo {
  std::string id;       ///< stable rule id, e.g. "pragma-once"
  std::string summary;  ///< one-line contract statement
  Severity severity = Severity::kWarning;
};

class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual RuleInfo rule() const = 0;
  virtual void run(const std::vector<SourceFile>& files,
                   std::vector<Finding>& out) const = 0;
};

/// The shipped pass catalog: the ten source-contract rules plus
/// wait-loop.
[[nodiscard]] std::vector<std::unique_ptr<Pass>> default_passes();

}  // namespace pe::lint
