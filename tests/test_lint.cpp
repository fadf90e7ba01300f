// Tests for the pe::lint static-analysis subsystem: the comment/string/
// raw-string-aware lexer, the waiver grammar, every rule of the shipped
// catalog against a seeded defect and its fixed or waived twin, the
// wait-loop pass over the fixture trees (tests/lint_fixtures/), the
// baseline diff, and the SARIF 2.1.0 render shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"
#include "perfeng/lint/baseline.hpp"
#include "perfeng/lint/driver.hpp"
#include "perfeng/lint/lexer.hpp"
#include "perfeng/lint/render.hpp"
#include "perfeng/lint/source.hpp"

namespace {

using pe::lint::Baseline;
using pe::lint::Finding;
using pe::lint::LintResult;
using pe::lint::ScanOptions;
using pe::lint::SourceFile;

// Compile definition from tests/CMakeLists.txt: absolute path of
// tests/lint_fixtures.
const std::string kFixtures = PE_LINT_FIXTURES;

// Member `key` of a parsed JSON object; a missing key fails the test.
const pe::JsonValue& field(const pe::JsonValue& v, const char* key) {
  const pe::JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error(std::string("no key ") + key);
  return *m;
}

LintResult lint_fixture(const std::string& tree,
                        const std::vector<std::string>& rules) {
  ScanOptions opts;
  opts.root = kFixtures + "/" + tree;
  opts.skip_substrings.clear();  // the fixture tree IS the repo here
  return pe::lint::lint_repo(opts, rules);
}

std::vector<Finding> with_rule(const LintResult& result,
                               const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : result.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, CooksCommentsAndStringsButKeepsLineStructure) {
  const std::vector<std::string> raw = {
      "int a = 1; // trailing comment with volatile",
      "const char* s = \"volatile in a string\";",
      "/* block", "   still block */ int b = 2;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  ASSERT_EQ(cooked.size(), raw.size());
  EXPECT_EQ(cooked[0].find("volatile"), std::string::npos);
  EXPECT_EQ(cooked[1].find("volatile"), std::string::npos);
  EXPECT_NE(cooked[1].find('"'), std::string::npos);  // delimiters stay
  EXPECT_EQ(cooked[2].find("block"), std::string::npos);
  EXPECT_NE(cooked[3].find("int b = 2;"), std::string::npos);
}

TEST(LintLexer, RawStringsSpanLinesAndIgnoreFakeTerminators) {
  const std::vector<std::string> raw = {
      "auto s = R\"x(first \" not a close",
      "still raw )\" nope",
      "done )x\"; int after = 1;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  EXPECT_EQ(cooked[1].find("still"), std::string::npos);
  EXPECT_EQ(cooked[2].find("done"), std::string::npos);
  EXPECT_NE(cooked[2].find("int after = 1;"), std::string::npos);
}

TEST(LintLexer, LineSplicedCommentExtendsToNextPhysicalLine) {
  const std::vector<std::string> raw = {
      "int a = 1; // comment continues \\",
      "volatile int hidden = 2;",
      "int b = 3;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  // Physical line 2 is still inside the spliced // comment.
  EXPECT_EQ(cooked[1].find("volatile"), std::string::npos);
  EXPECT_NE(cooked[2].find("int b = 3;"), std::string::npos);
}

TEST(LintLexer, DigitSeparatorsAreNotCharLiterals) {
  const std::vector<std::string> raw = {
      "std::size_t n = 1'000'000; volatile int tripwire = 0;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  // A naive char-literal scanner would swallow from 1'0...' onward and
  // blank the volatile; the lexer must keep it visible.
  EXPECT_NE(cooked[0].find("volatile"), std::string::npos);
}

TEST(LintLexer, IncludeDirectivesParsePathsAndSkipComments) {
  const std::vector<std::string> raw = {
      "#include <vector>",
      "#include \"perfeng/common/error.hpp\"",
      "/*",
      "#include \"perfeng/fake/commented_out.hpp\"",
      "*/",
      "#include \\",
      "  <atomic>",
  };
  const auto incs = pe::lint::include_directives(raw);
  ASSERT_EQ(incs.size(), 3u);
  EXPECT_TRUE(incs[0].angled);
  EXPECT_EQ(incs[0].path, "vector");
  EXPECT_FALSE(incs[1].angled);
  EXPECT_EQ(incs[1].path, "perfeng/common/error.hpp");
  EXPECT_EQ(incs[2].path, "atomic");  // spliced directive joined
}

// -------------------------------------------------------------- waivers

TEST(LintSource, WaiversApplyToLineAndLineAbove) {
  const SourceFile f = pe::lint::make_source_file(
      "src/x/src/x.cpp",
      {
          "int a;  // perfeng-lint: allow(no-volatile)",
          "// perfeng-lint: allow(no-std-rand) — fixture rationale",
          "int b;",
          "int c;",
      });
  EXPECT_TRUE(pe::lint::line_allows(f, 0, "no-volatile"));
  EXPECT_TRUE(pe::lint::line_allows(f, 2, "no-std-rand"));
  EXPECT_FALSE(pe::lint::line_allows(f, 3, "no-std-rand"));
  EXPECT_FALSE(pe::lint::file_allows(f, "no-volatile"));
}

// ---------------------------------------------------------------- rules

// One seeded defect per rule, at a path the rule covers: `bad` fires
// exactly once, on `line` (0 for a whole-file finding), and `twin` is the
// fixed or waived version, which stays quiet.
struct RuleCase {
  std::string rule;
  std::string path;
  std::vector<std::string> bad;
  std::size_t line;
  std::vector<std::string> twin;
};

const std::vector<RuleCase> kRuleCases = {
    {"pragma-once",
     "src/x/include/perfeng/x/x.hpp",
     {"// x.hpp", "namespace pe {", "}  // namespace pe"},
     2,
     {"// x.hpp", "#pragma once", "namespace pe {", "}  // namespace pe"}},
    {"include-style",
     "src/x/src/x.cpp",
     {"#include <vector>", "#include \"x.hpp\""},
     2,
     {"#include <vector>",
      "#include \"x.hpp\"  // perfeng-lint: allow(include-style) — why"}},
    {"namespace-pe",
     "src/x/include/perfeng/x/x.hpp",
     {"#pragma once", "inline int x() { return 1; }"},
     0,
     {"#pragma once", "namespace pe {", "inline int x() { return 1; }",
      "}  // namespace pe"}},
    {"no-using-namespace",
     "src/x/src/x.cpp",
     {"#include <vector>", "using namespace std;"},
     2,
     {"#include <vector>", "using namespace pe;"}},
    {"no-std-rand",
     "tests/test_x.cpp",
     {"#include <cstdlib>", "int roll() { return std::rand() % 6; }"},
     2,
     {"#include <cstdlib>", "// perfeng-lint: allow(no-std-rand) — why",
      "int roll() { return std::rand() % 6; }"}},
    {"no-raw-new-array",
     "bench/x.cpp",
     {"double* make() {", "  return new double[64];", "}"},
     2,
     {"std::vector<double> make() {", "  return std::vector<double>(64);",
      "}"}},
    {"no-volatile",
     "src/x/src/x.cpp",
     {"namespace pe {", "volatile bool stop = false;", "}  // namespace pe"},
     2,
     {"namespace pe {", "// perfeng-lint: allow(no-volatile) — barrier sink",
      "volatile double sink = 0.0;", "}  // namespace pe"}},
    {"test-determinism",
     "tests/test_x.cpp",
     {"#include <chrono>", "auto t0 = std::chrono::system_clock::now();"},
     2,
     {"#include <chrono>", "auto t0 = std::chrono::steady_clock::now();"}},
    {"simd-isolation",
     "src/kernels/src/x.cpp",
     {"void f(const double* p) {", "  __m256d v = _mm256_loadu_pd(p);",
      "}"},
     2,
     {"void f(const double* p) {", "  auto v = pe::simd::VecD::load(p);",
      "}"}},
    {"model-from-machine",
     "src/models/include/perfeng/models/x.hpp",
     {"#pragma once", "namespace pe::models {", "struct X {};",
      "}  // namespace pe::models"},
     0,
     {"#pragma once", "namespace pe::models {",
      "struct X { static X from_machine(const Machine& m); };",
      "}  // namespace pe::models"}},
    {"wait-loop",
     "src/x/src/x.cpp",
     {"void wait(std::atomic<bool>& ready) {", "  while (!ready.load()) {",
      "  }", "}"},
     2,
     {"void wait(std::atomic<bool>& ready) {", "  while (!ready.load()) {",
      "    std::this_thread::yield();", "  }", "}"}},
};

// Findings of rule `rule` over the single file `path`.
std::vector<Finding> run_rule(const std::string& rule, const std::string& path,
                              const std::vector<std::string>& lines) {
  return with_rule(
      pe::lint::run_passes({pe::lint::make_source_file(path, lines)},
                           pe::lint::default_passes()),
      rule);
}

TEST(LintRules, EveryRuleFiresOnceOnItsDefectAndNeverOnItsTwin) {
  for (const auto& pass : pe::lint::default_passes()) {
    const std::string id = pass->rule().id;
    const auto it = std::find_if(
        kRuleCases.begin(), kRuleCases.end(),
        [&](const RuleCase& c) { return c.rule == id; });
    ASSERT_NE(it, kRuleCases.end()) << "no seeded defect for " << id;
  }
  for (const RuleCase& c : kRuleCases) {
    SCOPED_TRACE(c.rule);
    const std::vector<Finding> bad = run_rule(c.rule, c.path, c.bad);
    ASSERT_EQ(bad.size(), 1u) << pe::lint::render_text(bad, 1);
    EXPECT_EQ(bad.front().rule, c.rule);
    EXPECT_EQ(bad.front().file, c.path);
    EXPECT_EQ(bad.front().line, c.line);
    const std::vector<Finding> twin = run_rule(c.rule, c.path, c.twin);
    EXPECT_TRUE(twin.empty()) << pe::lint::render_text(twin, 1);
  }
}

// ------------------------------------------------------------ wait-loop

TEST(LintWaitLoop, FlagsBackoffFreeSpinsAndClearsYieldingTwin) {
  const auto bad = lint_fixture("bad", {"wait-loop"});
  const auto findings = with_rule(bad, "wait-loop");
  // Both the braced busy-wait and the empty-body variant in spin.cpp.
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings)
    EXPECT_EQ(f.file, "src/alpha/src/spin.cpp");

  const auto clean = lint_fixture("clean", {"wait-loop"});
  EXPECT_TRUE(with_rule(clean, "wait-loop").empty())
      << pe::lint::render_text(clean.findings, clean.files_scanned);
}

// ------------------------------------------------------------- baseline

TEST(LintBaseline, RoundTripsAndAbsorbsExactlyTheAcceptedCounts) {
  Finding a;
  a.file = "src/x/src/x.cpp";
  a.line = 10;
  a.rule = "no-volatile";
  a.message = "volatile is not a synchronization primitive";
  Finding b = a;
  b.line = 20;  // same identity (line excluded from the key)
  Finding c;
  c.file = "src/y/src/y.cpp";
  c.line = 1;
  c.rule = "wait-loop";
  c.message = "spin without backoff";

  const std::string doc = Baseline::serialize({a, b});
  const std::string path = testing::TempDir() + "lint_baseline_rt.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
  const Baseline base = Baseline::load(path);
  // a and b share one identity with an accepted count of 2.
  EXPECT_EQ(base.total_entries(), 2u);

  // Two accepted occurrences absorb a and b; c is new; a third
  // occurrence of the same identity overflows the budget.
  Finding d = a;
  d.line = 30;
  const auto fresh = base.new_findings({a, b, c, d});
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(std::any_of(fresh.begin(), fresh.end(), [](const Finding& f) {
    return f.rule == "wait-loop";
  }));
  EXPECT_TRUE(std::any_of(fresh.begin(), fresh.end(), [](const Finding& f) {
    return f.rule == "no-volatile";
  }));
}

TEST(LintBaseline, MalformedEntryNamesTheFileAndLine) {
  const std::string path = testing::TempDir() + "lint_baseline_bad.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\n  \"entries\": [\n"
        "    {\"rule\":\"r\",\"file\":\"a\",\"message\":\"m\",\"count\":1},\n"
        "    {\"rule\":\"r\",\"file\":\"a\",\"count\":1}\n  ]\n}\n",
        f);
    std::fclose(f);
  }
  try {
    (void)Baseline::load(path);
    FAIL() << "accepted an entry without a message";
  } catch (const pe::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ": line 4:"),
              std::string::npos)
        << e.what();
  }
}

TEST(LintBaseline, MissingFileIsEmptyBaseline) {
  const Baseline base =
      Baseline::load(testing::TempDir() + "does_not_exist_baseline.json");
  EXPECT_EQ(base.total_entries(), 0u);
  Finding f;
  f.file = "a";
  f.rule = "r";
  f.message = "m";
  EXPECT_EQ(base.new_findings({f}).size(), 1u);
}

// ---------------------------------------------------------------- SARIF

TEST(LintSarif, RendersTheShapeCiAndCodeScannersExpect) {
  // Every rule runs; the bad tree holds wait-loop warnings and one
  // error-level defect (a.hpp has no #pragma once).
  const auto bad = lint_fixture("bad", {});
  const pe::JsonValue sarif = pe::json_parse(
      pe::lint::render_sarif(bad.findings, bad.rules), "sarif");

  // Top-level shape.
  EXPECT_EQ(field(sarif, "version").text, "2.1.0");
  EXPECT_NE(field(sarif, "$schema").text.find("sarif-schema-2.1.0"),
            std::string::npos);
  const pe::JsonValue& runs = field(sarif, "runs");
  ASSERT_EQ(runs.array.size(), 1u);
  const pe::JsonValue& driver = field(field(runs.array[0], "tool"), "driver");
  EXPECT_EQ(field(driver, "name").text, "perfeng-lint");
  // Every pass that ran appears in the driver rules array.
  std::vector<std::string> ids;
  for (const pe::JsonValue& rule : field(driver, "rules").array)
    ids.push_back(field(rule, "id").text);
  for (const auto& pass : pe::lint::default_passes()) {
    const std::string id = pass->rule().id;
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
  // Each result's ruleIndex points at the rule its ruleId names, and it
  // carries a SARIF level and a physical location with a line.
  const pe::JsonValue& results = field(runs.array[0], "results");
  ASSERT_EQ(results.array.size(), bad.findings.size());
  ASSERT_FALSE(results.array.empty());
  bool saw_error = false;
  for (const pe::JsonValue& result : results.array) {
    const std::optional<std::uint64_t> index =
        field(result, "ruleIndex").as_uint();
    ASSERT_TRUE(index.has_value());
    ASSERT_LT(*index, ids.size());
    EXPECT_EQ(ids[*index], field(result, "ruleId").text);
    const std::string& level = field(result, "level").text;
    EXPECT_TRUE(level == "error" || level == "warning" || level == "note")
        << level;
    saw_error |= level == "error";
    const pe::JsonValue& location =
        field(field(result, "locations").array.at(0), "physicalLocation");
    EXPECT_FALSE(field(field(location, "artifactLocation"), "uri")
                     .text.empty());
    EXPECT_GE(field(field(location, "region"), "startLine").as_uint(), 1u);
  }
  EXPECT_TRUE(saw_error);
}

}  // namespace
