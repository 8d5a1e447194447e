// JSON string escaping, shared by every hand-built JSON writer: the Chrome
// trace export, the metrics export, flight dumps, deployment stage sections
// and fuzz reports.
//
// Header-only because aed_util links aed_obs: an escaper compiled into
// aed_util would make the two libraries depend on each other.
#pragma once

#include <string>
#include <string_view>

namespace aed {

/// Escapes `text` for the inside of a JSON string literal: the quote, the
/// backslash, and every control character below 0x20 (\n, \r and \t by
/// name, the rest as \u00XX). All other bytes, UTF-8 sequences included,
/// pass through unchanged.
inline std::string jsonEscape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace aed
