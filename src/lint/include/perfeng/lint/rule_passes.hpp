#pragma once

/// \file rule_passes.hpp
/// The ten source-contract rules, ported from the original
/// single-file tool onto the pass framework (see docs/lint.md for the
/// catalog). Each is a small whole-program pass over the lexed files;
/// they share the lexer, the waiver grammar, and the structured output
/// with everything else in pe::lint.

#include <memory>
#include <vector>

#include "perfeng/lint/pass.hpp"

namespace pe::lint {

/// All ten ported rules, in catalog order:
///   pragma-once, include-style, namespace-pe, no-using-namespace,
///   no-std-rand, no-raw-new-array, no-volatile, test-determinism,
///   simd-isolation, model-from-machine.
[[nodiscard]] std::vector<std::unique_ptr<Pass>> ported_rule_passes();

}  // namespace pe::lint
