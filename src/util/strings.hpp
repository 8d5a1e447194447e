// Small string helpers used by the config parser and objective language.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aed {

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits on any run of ASCII whitespace; no empty tokens.
std::vector<std::string_view> splitWhitespace(std::string_view text);

/// Splits on a single character; keeps empty fields.
std::vector<std::string_view> splitChar(std::string_view text, char sep);

/// Joins the elements with `sep`.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `text` starts with `prefix`.
bool startsWith(std::string_view text, std::string_view prefix);

/// Parses a base-10 integer (optional leading '-'), requiring the whole
/// string to be consumed. Throws AedError(ErrorCode::kParseError) naming
/// `context` on empty/malformed/overflowing input, so a bad `seq`/`lp`/
/// `weight` value surfaces as a structured parse failure instead of an
/// uncaught std::invalid_argument from std::stoi.
int parseInt(std::string_view text, const std::string& context);

/// Parses a base-10 unsigned 64-bit integer (digits only, no sign),
/// requiring the whole string to be consumed. Throws
/// AedError(ErrorCode::kParseError) naming `context` on empty, signed,
/// malformed or overflowing input.
std::uint64_t parseU64(std::string_view text, const std::string& context);

}  // namespace aed
