#pragma once

/// \file pass.hpp
/// The pass framework: one rule = one pass = one `RuleInfo`.
///
/// A pass sees the whole program — every lexed file plus the declared
/// library DAG — and appends structured findings. File-local rules simply
/// loop over `ctx.files`; whole-program rules (layering, lock-order)
/// build global state first. `default_passes()` is the shipped catalog;
/// the CLI can filter it by rule id.

#include <memory>
#include <string>
#include <vector>

#include "perfeng/lint/finding.hpp"
#include "perfeng/lint/repo_model.hpp"
#include "perfeng/lint/source.hpp"

namespace pe::lint {

/// Static metadata of a rule, also rendered into the SARIF rules array.
struct RuleInfo {
  std::string id;       ///< stable rule id, e.g. "include-layering"
  std::string summary;  ///< one-line contract statement
  Severity severity = Severity::kWarning;
};

/// Everything a pass may look at.
struct PassContext {
  const RepoModel* model = nullptr;
  const std::vector<SourceFile>* files = nullptr;
};

class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual RuleInfo rule() const = 0;
  virtual void run(const PassContext& ctx,
                   std::vector<Finding>& out) const = 0;
};

/// The shipped pass catalog: the ten ported source-contract rules plus
/// the three whole-program passes (include-layering, lock-order,
/// wait-loop).
[[nodiscard]] std::vector<std::unique_ptr<Pass>> default_passes();

}  // namespace pe::lint
