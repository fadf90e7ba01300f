#pragma once

/// \file json.hpp
/// The library's one JSON reader and its two writers. The JSON writers
/// (machine descriptions, pe-bench-v1 reports, lint reports, trace
/// captures and Chrome traces) escape strings with `json_escape` and write
/// doubles with `json_double`; the JSON loaders (machine descriptions,
/// trace captures, the lint baseline) parse with `json_parse`, which
/// reports malformed input as "<source>: line N: what", the form the CSV
/// and Matrix Market loaders use.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pe {

/// `s` escaped for the inside of a JSON string literal: `"` and `\` get a
/// backslash, newline, carriage return and tab their short escapes, and
/// every other control character becomes `\u00XX`. All other bytes,
/// UTF-8 included, pass through unchanged.
[[nodiscard]] std::string json_escape(std::string_view s);

/// `s` as a quoted JSON string literal.
[[nodiscard]] inline std::string json_quote(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

/// `v` as a JSON number: the shortest `%.*g` form that reads back as the
/// same double, so written files read back exactly and re-serializing a
/// parsed value is byte-identical. NaN and infinities, which JSON cannot
/// represent, are written as `null`.
[[nodiscard]] std::string json_double(double v);

/// One value read by `json_parse`, with the 1-based line it starts on.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;  ///< a number, rounded to the nearest double
  std::string text;     ///< a string, decoded; a number's token as written
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< document order
  std::size_t line = 1;

  [[nodiscard]] const char* kind_name() const noexcept;

  /// The object member named `key` (the first, if repeated), or nullptr.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// A number written as a plain non-negative integer that fits in 64
  /// bits, converted exactly from its token (never through `number`).
  /// Empty for a sign, a fraction, an exponent, or a value that is not a
  /// number.
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const noexcept;
};

/// Deepest nesting of arrays and objects `json_parse` accepts. SARIF, the
/// deepest format the toolbox writes, needs fewer than 16 levels; the cap
/// turns hostile input into a pe::Error instead of a stack overflow.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Parse `text` as exactly one JSON document (RFC 8259). Rejects what
/// JSON rejects, numbers that overflow a double, nesting deeper than
/// `kJsonMaxDepth`, and `\u` escapes of non-ASCII characters (decoded
/// only below 0x80). Throws pe::Error "<source>: line N: what", counting
/// lines from `first_line` so that one line of a larger file is reported
/// with the file's line number.
[[nodiscard]] JsonValue json_parse(std::string_view text,
                                   std::string_view source,
                                   std::size_t first_line = 1);

/// Throw the pe::Error `json_parse` throws, "<source>: line N: what", so
/// that loaders report schema errors in the same form as syntax errors.
[[noreturn]] void json_error(std::string_view source, std::size_t line,
                             std::string_view what);

}  // namespace pe
