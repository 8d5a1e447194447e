#include "util/strings.hpp"

#include <cctype>
#include <charconv>

#include "util/error.hpp"

namespace aed {

namespace {
bool isSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view text) {
  while (!text.empty() && isSpace(text.front())) text.remove_prefix(1);
  while (!text.empty() && isSpace(text.back())) text.remove_suffix(1);
  return text;
}

std::vector<std::string_view> splitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && isSpace(text[i])) ++i;
    std::size_t start = i;
    while (i < text.size() && !isSpace(text[i])) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> splitChar(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

namespace {
/// std::from_chars over the whole of `text`; throws a kParseError naming
/// `context` unless every character was consumed into a representable value.
template <typename T>
T parseWhole(std::string_view text, const std::string& context) {
  T value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || text.empty()) {
    throw AedError(ErrorCode::kParseError,
                   "invalid integer '" + std::string(text) + "' in " +
                       context);
  }
  return value;
}
}  // namespace

int parseInt(std::string_view text, const std::string& context) {
  return parseWhole<int>(text, context);
}

std::uint64_t parseU64(std::string_view text, const std::string& context) {
  return parseWhole<std::uint64_t>(text, context);
}

}  // namespace aed
