#include "perfeng/lint/rule_passes.hpp"

#include <algorithm>
#include <string_view>

#include "perfeng/lint/layering.hpp"
#include "perfeng/lint/lexer.hpp"
#include "perfeng/lint/lock_order.hpp"
#include "perfeng/lint/wait_loop.hpp"

namespace pe::lint {

namespace {

Finding make_finding(const SourceFile& f, std::size_t line,
                     const RuleInfo& rule, std::string message,
                     std::string fix_hint = {}) {
  Finding out;
  out.file = f.rel;
  out.line = line;
  out.rule = rule.id;
  out.severity = rule.severity;
  out.message = std::move(message);
  out.fix_hint = std::move(fix_hint);
  return out;
}

// --- pragma-once ------------------------------------------------------------

class PragmaOncePass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"pragma-once", "src headers start with #pragma once",
            Severity::kError};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      if (!f.is_header || !f.in_src) continue;
      bool decided = false;
      for (std::size_t i = 0; i < f.code.size() && !decided; ++i) {
        std::string_view line(f.code[i]);
        const std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string_view::npos) continue;  // blank/comment
        decided = true;
        if (line.substr(first).rfind("#pragma once", 0) != 0)
          out.push_back(make_finding(
              f, i + 1, rule(), "header must start with #pragma once",
              "put #pragma once before any code"));
      }
      if (!decided)
        out.push_back(make_finding(f, 0, rule(),
                                   "header must contain #pragma once"));
    }
  }
};

// --- include-style ----------------------------------------------------------

class IncludeStylePass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"include-style",
            "quoted includes name \"perfeng/...\" paths only",
            Severity::kWarning};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      for (const IncludeDirective& inc : f.includes) {
        if (inc.angled) continue;
        if (inc.path.rfind("perfeng/", 0) == 0) continue;
        if (line_allows(f, inc.line - 1, "include-style")) continue;
        out.push_back(make_finding(
            f, inc.line, rule(),
            "quoted include \"" + inc.path +
                "\" — quoted includes must name \"perfeng/...\" paths "
                "(angle brackets for system headers)"));
      }
    }
  }
};

// --- namespace-pe -----------------------------------------------------------

class NamespacePePass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"namespace-pe", "public headers declare everything inside pe::",
            Severity::kWarning};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      if (!f.is_public_header) continue;
      if (file_allows(f, "namespace-pe")) continue;
      const bool has = std::any_of(
          f.code.begin(), f.code.end(), [](const std::string& line) {
            return line.find("namespace pe") != std::string::npos;
          });
      if (!has)
        out.push_back(make_finding(
            f, 0, rule(), "public header declares nothing in namespace pe"));
    }
  }
};

// --- no-using-namespace -----------------------------------------------------

class UsingNamespacePass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"no-using-namespace",
            "no `using namespace std`; none at all in headers",
            Severity::kError};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        const std::size_t pos = line.find("using namespace");
        if (pos == std::string::npos) continue;
        if (line_allows(f, i, "no-using-namespace")) continue;
        const bool is_std =
            line.find("using namespace std", pos) != std::string::npos;
        if (is_std)
          out.push_back(make_finding(f, i + 1, rule(),
                                     "`using namespace std` is banned"));
        else if (f.is_header)
          out.push_back(make_finding(
              f, i + 1, rule(),
              "headers must not have using-namespace directives"));
      }
    }
  }
};

// --- no-std-rand ------------------------------------------------------------

class StdRandPass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"no-std-rand",
            "no std::rand/srand/random_device — use pe::Rng",
            Severity::kError};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        if (line_allows(f, i, "no-std-rand")) continue;
        if (contains_token(line, "std::rand") ||
            contains_token(line, "srand") ||
            contains_token(line, "random_device"))
          out.push_back(make_finding(
              f, i + 1, rule(),
              "use pe::Rng (seeded, reproducible) instead of C/OS "
              "randomness"));
      }
    }
  }
};

// --- no-raw-new-array -------------------------------------------------------

class RawNewArrayPass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"no-raw-new-array",
            "no raw new[] in src/, bench/, or tools/ — AlignedBuffer or "
            "std::vector own memory",
            Severity::kError};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      if (!f.in_src && !f.in_bench && !f.in_tools) continue;
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        if (line_allows(f, i, "no-raw-new-array")) continue;
        std::size_t pos = 0;
        while ((pos = line.find("new ", pos)) != std::string::npos) {
          if (pos > 0 && is_identifier_char(line[pos - 1])) {  // e.g. renew
            pos += 4;
            continue;
          }
          std::size_t j = pos + 4;
          while (j < line.size() &&
                 (is_identifier_char(line[j]) || line[j] == ':' ||
                  line[j] == '<' || line[j] == '>' || line[j] == ' '))
            ++j;
          if (j < line.size() && line[j] == '[')
            out.push_back(make_finding(
                f, i + 1, rule(),
                "raw new[] — use AlignedBuffer or std::vector",
                "raw arrays leak on the exception paths the resilience "
                "layer exercises"));
          pos = j;
        }
      }
    }
  }
};

// --- no-volatile ------------------------------------------------------------

class VolatilePass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"no-volatile",
            "volatile is not a synchronization primitive — use std::atomic",
            Severity::kError};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      if (!f.in_src && !f.in_bench && !f.in_tools) continue;
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        if (!contains_token(line, "volatile")) continue;
        if (line.find("asm volatile") != std::string::npos) continue;
        if (line_allows(f, i, "no-volatile")) continue;
        out.push_back(make_finding(
            f, i + 1, rule(),
            "volatile is not a synchronization primitive — use std::atomic",
            "annotate compiler-barrier sinks with perfeng-lint: "
            "allow(no-volatile) + rationale"));
      }
    }
  }
};

// --- test-determinism -------------------------------------------------------

class TestDeterminismPass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"test-determinism",
            "tests never read wall-clock dates or OS entropy",
            Severity::kError};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      if (!f.in_tests) continue;
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        if (line_allows(f, i, "test-determinism")) continue;
        if (contains_token(line, "system_clock"))
          out.push_back(make_finding(
              f, i + 1, rule(),
              "tests must not read the wall clock (use steady_clock for "
              "durations, fixed seeds for data)"));
        if (line.find("time(nullptr)") != std::string::npos ||
            line.find("time(NULL)") != std::string::npos)
          out.push_back(make_finding(
              f, i + 1, rule(),
              "seeding from time() makes the test a different test every "
              "run"));
      }
    }
  }
};

// --- simd-isolation ---------------------------------------------------------

class SimdIsolationPass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"simd-isolation",
            "raw intrinsics live only in pe::simd backend headers",
            Severity::kError};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    static const std::vector<std::string_view> kIntrinsicHeaders = {
        "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
        "smmintrin.h", "tmmintrin.h", "avxintrin.h", "arm_neon.h"};
    static const std::vector<std::string_view> kIntrinsicPrefixes = {
        "_mm", "__m128", "__m256", "__m512"};
    for (const SourceFile& f : *ctx.files) {
      if (f.rel.rfind("src/simd/include/perfeng/simd/backend_", 0) == 0)
        continue;
      if (file_allows(f, "simd-isolation")) continue;
      for (const IncludeDirective& inc : f.includes) {
        if (!inc.angled) continue;
        if (line_allows(f, inc.line - 1, "simd-isolation")) continue;
        for (std::string_view header : kIntrinsicHeaders) {
          if (inc.path == header) {
            out.push_back(make_finding(
                f, inc.line, rule(),
                "intrinsic header outside the pe::simd backend layer — "
                "include \"perfeng/simd/vec.hpp\" and use Vec<T, N>"));
            break;
          }
        }
      }
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        if (line.find("#include") != std::string::npos) continue;
        if (line_allows(f, i, "simd-isolation")) continue;
        for (std::string_view prefix : kIntrinsicPrefixes) {
          std::size_t pos = 0;
          bool flagged = false;
          while ((pos = line.find(prefix, pos)) != std::string::npos) {
            if (pos == 0 || !is_identifier_char(line[pos - 1])) {
              out.push_back(make_finding(
                  f, i + 1, rule(),
                  "raw SIMD intrinsic outside src/simd backend headers — "
                  "extend Vec<T, N> instead"));
              flagged = true;
              break;
            }
            pos += prefix.size();
          }
          if (flagged) break;
        }
      }
    }
  }
};

// --- model-from-machine -----------------------------------------------------

class ModelFromMachinePass final : public Pass {
 public:
  RuleInfo rule() const override {
    return {"model-from-machine",
            "public model headers expose a from_machine() factory",
            Severity::kWarning};
  }
  void run(const PassContext& ctx, std::vector<Finding>& out) const override {
    for (const SourceFile& f : *ctx.files) {
      if (!f.is_public_header) continue;
      if (f.rel.rfind("src/models/", 0) != 0) continue;
      if (file_allows(f, "model-from-machine")) continue;
      const bool has = std::any_of(
          f.code.begin(), f.code.end(), [](const std::string& line) {
            return line.find("from_machine(") != std::string::npos;
          });
      if (!has)
        out.push_back(make_finding(
            f, 0, rule(),
            "public model header has no from_machine() factory — every "
            "model must be constructible from a machine description so the "
            "composition layer can use it as a leaf (docs/models.md)",
            "if the model is deliberately machine-independent, add "
            "`perfeng-lint: allow-file(model-from-machine)` with a "
            "rationale"));
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Pass>> ported_rule_passes() {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<PragmaOncePass>());
  passes.push_back(std::make_unique<IncludeStylePass>());
  passes.push_back(std::make_unique<NamespacePePass>());
  passes.push_back(std::make_unique<UsingNamespacePass>());
  passes.push_back(std::make_unique<StdRandPass>());
  passes.push_back(std::make_unique<RawNewArrayPass>());
  passes.push_back(std::make_unique<VolatilePass>());
  passes.push_back(std::make_unique<TestDeterminismPass>());
  passes.push_back(std::make_unique<SimdIsolationPass>());
  passes.push_back(std::make_unique<ModelFromMachinePass>());
  return passes;
}

std::vector<std::unique_ptr<Pass>> default_passes() {
  std::vector<std::unique_ptr<Pass>> passes = ported_rule_passes();
  passes.push_back(std::make_unique<IncludeLayeringPass>());
  passes.push_back(std::make_unique<LockOrderPass>());
  passes.push_back(std::make_unique<WaitLoopPass>());
  return passes;
}

}  // namespace pe::lint
