#include "perfeng/lint/source.hpp"

#include <algorithm>
#include <utility>

namespace pe::lint {

SourceFile make_source_file(std::string rel, std::vector<std::string> raw) {
  SourceFile f;
  f.rel = std::move(rel);
  f.raw = std::move(raw);
  f.code = cook_lines(f.raw);
  f.includes = include_directives(f.raw);

  const auto ends_with = [&](std::string_view suffix) {
    return f.rel.size() >= suffix.size() &&
           f.rel.compare(f.rel.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
  };
  f.is_header = ends_with(".hpp") || ends_with(".h");
  f.in_src = f.rel.rfind("src/", 0) == 0;
  f.in_tests = f.rel.rfind("tests/", 0) == 0;
  f.in_bench = f.rel.rfind("bench/", 0) == 0;
  f.in_tools = f.rel.rfind("tools/", 0) == 0;
  f.is_public_header =
      f.is_header && f.rel.find("/include/perfeng/") != std::string::npos;
  return f;
}

bool line_allows(const SourceFile& f, std::size_t idx,
                 std::string_view rule) {
  const std::string needle =
      "perfeng-lint: allow(" + std::string(rule) + ")";
  if (idx < f.raw.size() && f.raw[idx].find(needle) != std::string::npos)
    return true;
  return idx > 0 && f.raw[idx - 1].find(needle) != std::string::npos;
}

bool file_allows(const SourceFile& f, std::string_view rule) {
  const std::string needle =
      "perfeng-lint: allow-file(" + std::string(rule) + ")";
  return std::any_of(f.raw.begin(), f.raw.end(),
                     [&](const std::string& line) {
                       return line.find(needle) != std::string::npos;
                     });
}

}  // namespace pe::lint
