#pragma once

/// \file json.hpp
/// The one JSON string escaper every writer in the toolbox uses (machine
/// descriptions, pe-bench-v1 reports, lint reports, trace captures and
/// Chrome traces), and the decoder the in-repo parsers use to read each
/// escape back.

#include <cstddef>
#include <string>
#include <string_view>

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

/// Decode the escape sequence whose backslash is at `s[i]` — any escape
/// `json_escape` writes, plus `\/` — appending the character it stands for
/// to `out`. Returns the index just past the sequence, or
/// `std::string_view::npos` for a truncated or unsupported sequence
/// (`\uXXXX` is decoded only below 0x80).
[[nodiscard]] std::size_t json_unescape(std::string_view s, std::size_t i,
                                        std::string& out);

}  // namespace pe
