#include "perfeng/common/json.hpp"

#include <charconv>
#include <cstdio>
#include <system_error>

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

std::size_t json_unescape(std::string_view s, std::size_t i,
                          std::string& out) {
  constexpr std::size_t kBad = std::string_view::npos;
  if (i + 1 >= s.size()) return kBad;
  switch (s[i + 1]) {
    case '"': out.push_back('"'); return i + 2;
    case '\\': out.push_back('\\'); return i + 2;
    case '/': out.push_back('/'); return i + 2;
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

}  // namespace pe
