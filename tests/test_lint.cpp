// Tests for the pe::lint static-analysis subsystem: the comment/string/
// raw-string-aware lexer, the declared-DAG repo model, the three
// whole-program passes against seeded positive/negative fixture twins
// (tests/lint_fixtures/), the waiver grammar, the baseline diff, and the
// SARIF 2.1.0 render shape.
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
#include "perfeng/lint/repo_model.hpp"
#include "perfeng/lint/source.hpp"

namespace {

using pe::lint::Baseline;
using pe::lint::Finding;
using pe::lint::LintResult;
using pe::lint::RepoModel;
using pe::lint::ScanOptions;
using pe::lint::Severity;
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

// ----------------------------------------------------------- repo model

TEST(LintRepoModel, ParsesDeclaredDagFromFixtureCMake) {
  const RepoModel model = RepoModel::build(kFixtures + "/bad");
  ASSERT_NE(model.by_name("alpha"), nullptr);
  ASSERT_NE(model.by_target("perfeng_beta"), nullptr);
  // alpha declares no dependency on beta in the bad tree.
  EXPECT_FALSE(model.depends_on("alpha", "beta"));
  EXPECT_TRUE(model.depends_on("alpha", "alpha"));
  EXPECT_EQ(model.owner_of_header("perfeng/beta/b.hpp"), "beta");
  EXPECT_EQ(model.owner_of_header("perfeng/nowhere/x.hpp"), "");
  // gamma <-> delta is a declared cycle, reported exactly once.
  EXPECT_EQ(model.declared_cycles().size(), 1u);

  const RepoModel clean = RepoModel::build(kFixtures + "/clean");
  EXPECT_TRUE(clean.depends_on("alpha", "beta"));
  EXPECT_TRUE(clean.declared_cycles().empty());
}

// ----------------------------------------------- whole-program passes

TEST(LintLayering, FlagsUndeclaredIncludeEdgeAndDeclaredCycle) {
  const auto bad = lint_fixture("bad", {"include-layering"});
  const auto findings = with_rule(bad, "include-layering");
  ASSERT_GE(findings.size(), 2u);
  bool saw_edge = false;
  bool saw_cycle = false;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
    if (f.file == "src/alpha/include/perfeng/alpha/a.hpp" &&
        f.message.find("beta") != std::string::npos)
      saw_edge = true;
    if (f.message.find("cycle") != std::string::npos &&
        f.message.find("gamma") != std::string::npos &&
        f.message.find("delta") != std::string::npos)
      saw_cycle = true;
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_cycle);

  const auto clean = lint_fixture("clean", {"include-layering"});
  EXPECT_TRUE(with_rule(clean, "include-layering").empty())
      << pe::lint::render_text(clean.findings, clean.files_scanned);
}

TEST(LintLockOrder, FlagsAbBaInversionWithWitnessAndClearsCleanTwin) {
  const auto bad = lint_fixture("bad", {"lock-order"});
  const auto findings = with_rule(bad, "lock-order");
  ASSERT_EQ(findings.size(), 1u);
  const Finding& f = findings.front();
  EXPECT_EQ(f.severity, Severity::kError);
  // The witness names both mutex identities and both offending functions.
  EXPECT_NE(f.message.find("Pair::ma"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("Pair::mb"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("first"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("second"), std::string::npos) << f.message;

  const auto clean = lint_fixture("clean", {"lock-order"});
  EXPECT_TRUE(with_rule(clean, "lock-order").empty())
      << pe::lint::render_text(clean.findings, clean.files_scanned);
}

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
  const auto bad = lint_fixture(
      "bad", {"include-layering", "lock-order", "wait-loop"});
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
  for (const char* id : {"include-layering", "lock-order", "wait-loop"})
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
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
