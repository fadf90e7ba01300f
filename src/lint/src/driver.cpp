#include "perfeng/lint/driver.hpp"

#include <algorithm>
#include <fstream>

#include "perfeng/common/error.hpp"

namespace pe::lint {

namespace {

namespace fs = std::filesystem;

bool wanted_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<std::string> read_lines(const fs::path& p) {
  std::ifstream in(p);
  if (!in) throw pe::Error("perfeng-lint: cannot read " + p.string());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace

std::vector<SourceFile> load_sources(const ScanOptions& opts) {
  std::vector<fs::path> paths;
  for (const std::string& dir : opts.dirs) {
    const fs::path base = opts.root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !wanted_extension(entry.path()))
        continue;
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  const std::string root_str = opts.root.string();
  for (const fs::path& p : paths) {
    std::string rel = p.string();
    if (rel.rfind(root_str, 0) == 0) {
      rel = rel.substr(root_str.size());
      while (!rel.empty() && rel.front() == '/') rel.erase(rel.begin());
    }
    const bool skipped = std::any_of(
        opts.skip_substrings.begin(), opts.skip_substrings.end(),
        [&](const std::string& s) { return rel.find(s) != std::string::npos; });
    if (skipped) continue;
    files.push_back(make_source_file(std::move(rel), read_lines(p)));
  }
  return files;
}

LintResult run_passes(const std::vector<SourceFile>& files,
                      const std::vector<std::unique_ptr<Pass>>& passes) {
  LintResult result;
  result.files_scanned = files.size();
  for (const auto& pass : passes) {
    result.rules.push_back(pass->rule());
    pass->run(files, result.findings);
  }
  sort_findings(result.findings);
  return result;
}

LintResult lint_repo(const ScanOptions& opts,
                     const std::vector<std::string>& only_rules) {
  std::vector<std::unique_ptr<Pass>> passes = default_passes();
  if (!only_rules.empty()) {
    std::erase_if(passes, [&](const std::unique_ptr<Pass>& p) {
      return std::find(only_rules.begin(), only_rules.end(),
                       p->rule().id) == only_rules.end();
    });
  }
  return run_passes(load_sources(opts), passes);
}

}  // namespace pe::lint
