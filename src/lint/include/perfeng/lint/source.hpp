#pragma once

/// \file source.hpp
/// One lexed source file plus its place in the repo, and the waiver
/// grammar shared by every pass.
///
/// Waivers are explicit and greppable:
///   `perfeng-lint: allow(<rule>)`       exempts the line it appears on,
///                                       or the line directly below (so
///                                       the rationale comments the code)
///   `perfeng-lint: allow-file(<rule>)`  exempts the whole file
/// Every waiver should carry a written rationale; reviewers treat a bare
/// waiver as a finding of its own.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "perfeng/lint/lexer.hpp"

namespace pe::lint {

/// A lexed file with repo-relative identity and layout flags.
struct SourceFile {
  std::string rel;                        ///< repo-relative, forward slashes
  std::vector<std::string> raw;           ///< physical lines
  std::vector<std::string> code;          ///< cooked lines (see lexer.hpp)
  std::vector<IncludeDirective> includes;

  bool is_header = false;
  bool in_src = false;       ///< under src/
  bool in_tests = false;     ///< under tests/
  bool in_bench = false;     ///< under bench/
  bool in_tools = false;     ///< under tools/
  bool is_public_header = false;  ///< under src/*/include/perfeng/
};

/// Build the lexed model from raw lines (the driver does this for files
/// on disk; tests feed synthetic content).
[[nodiscard]] SourceFile make_source_file(std::string rel,
                                          std::vector<std::string> raw);

/// Line-level waiver: `perfeng-lint: allow(<rule>)` on this line or the
/// line directly above it.
[[nodiscard]] bool line_allows(const SourceFile& f, std::size_t idx,
                               std::string_view rule);

/// File-level waiver: `perfeng-lint: allow-file(<rule>)` anywhere.
[[nodiscard]] bool file_allows(const SourceFile& f, std::string_view rule);

}  // namespace pe::lint
