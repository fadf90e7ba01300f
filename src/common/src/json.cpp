#include "perfeng/common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "perfeng/common/error.hpp"

namespace pe {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

const char* JsonValue::kind_name() const noexcept {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : object)
    if (name == key) return &value;
  return nullptr;
}

std::optional<std::uint64_t> JsonValue::as_uint() const noexcept {
  if (kind != Kind::kNumber) return std::nullopt;
  std::uint64_t u = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, u);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return u;
}

void json_error(std::string_view source, std::size_t line,
                std::string_view what) {
  std::string s(source);
  s.append(": line ").append(std::to_string(line)).append(": ").append(what);
  throw Error(s);
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Decode the escape sequence whose backslash is at `s[i]`, appending the
/// character it stands for to `out`. Returns the index just past the
/// sequence, or npos for a truncated or unsupported sequence.
std::size_t unescape(std::string_view s, std::size_t i, std::string& out) {
  constexpr std::size_t kBad = std::string_view::npos;
  if (i + 1 >= s.size()) return kBad;
  switch (s[i + 1]) {
    case '"': out.push_back('"'); return i + 2;
    case '\\': out.push_back('\\'); return i + 2;
    case '/': out.push_back('/'); return i + 2;
    case 'b': out.push_back('\b'); return i + 2;
    case 'f': out.push_back('\f'); return i + 2;
    case 'n': out.push_back('\n'); return i + 2;
    case 'r': out.push_back('\r'); return i + 2;
    case 't': out.push_back('\t'); return i + 2;
    case 'u': break;
    default: return kBad;
  }
  if (i + 6 > s.size()) return kBad;
  const char* const hex = s.data() + i + 2;
  unsigned code = 0;
  const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
  if (ec != std::errc() || end != hex + 4 || code >= 0x80) return kBad;
  out.push_back(static_cast<char>(code));
  return i + 6;
}

/// Recursive-descent reader over one document. `line_` is the line of the
/// next unread character; a string cannot span lines, so inside one it is
/// the string's line.
class Reader {
 public:
  Reader(std::string_view text, std::string_view source,
         std::size_t first_line)
      : text_(text), source_(source), line_(first_line) {}

  JsonValue document() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(std::string_view what) const {
    json_error(source_, line_, what);
  }

  void skip_ws() {
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        break;
      }
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  /// Consume the next character if it is one of `chars`.
  bool skip(std::string_view chars) {
    if (pos_ >= text_.size() || chars.find(text_[pos_]) == chars.npos)
      return false;
    ++pos_;
    return true;
  }

  JsonValue value(std::size_t depth) {
    const char c = peek();
    JsonValue v;
    v.line = line_;
    if (c == '{' || c == '[') {
      if (depth == kJsonMaxDepth)
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
             " levels");
      ++pos_;
      v.kind = c == '{' ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
      items(v, c == '{' ? '}' : ']', depth + 1);
    } else if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = string();
    } else if (c == '-' || is_digit(c)) {
      number(v);
    } else if (text_.substr(pos_, 4) == "true") {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.kind = JsonValue::Kind::kBool;
      pos_ += 5;
    } else if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    return v;
  }

  /// The members of an object or the elements of an array, after the
  /// opening bracket, through the closing one.
  void items(JsonValue& v, char close, std::size_t depth) {
    if (peek() == close) {
      ++pos_;
      return;
    }
    for (;;) {
      if (close == ']') {
        v.array.push_back(value(depth));
      } else {
        if (peek() != '"') fail("expected a quoted key");
        std::string key = string();
        if (peek() != ':') fail("expected ':' after a key");
        ++pos_;
        v.object.emplace_back(std::move(key), value(depth));
      }
      const char c = peek();
      ++pos_;
      if (c == close) return;
      if (c != ',') fail(std::string("expected ',' or '") + close + "'");
    }
  }

  std::string string() {
    std::string out;
    ++pos_;  // opening quote
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c == '\\') {
        const std::size_t next = unescape(text_, pos_, out);
        if (next == std::string_view::npos)
          fail("unsupported escape '" + std::string(text_.substr(pos_, 2)) +
               "'");
        pos_ = next;
      } else {
        out.push_back(c);
        ++pos_;
      }
    }
  }

  /// JSON's grammar: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  void number(JsonValue& v) {
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
      return pos_ - from;
    };
    const std::size_t start = pos_;
    skip("-");
    const bool leading_zero = text_.substr(pos_, 1) == "0";
    const std::size_t int_digits = digits();
    bool ok = int_digits > 0 && !(leading_zero && int_digits > 1);
    if (ok && skip(".")) ok = digits() > 0;
    if (ok && skip("eE")) {
      skip("+-");
      ok = digits() > 0;
    }
    v.kind = JsonValue::Kind::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    if (!ok) fail("malformed number '" + v.text + "'");
    v.number = std::strtod(v.text.c_str(), nullptr);
    if (!std::isfinite(v.number))
      fail("number '" + v.text + "' overflows a double");
  }

  std::string_view text_;
  std::string_view source_;
  std::size_t pos_ = 0;
  std::size_t line_;
};

}  // namespace

JsonValue json_parse(std::string_view text, std::string_view source,
                     std::size_t first_line) {
  return Reader(text, source, first_line).document();
}

}  // namespace pe
