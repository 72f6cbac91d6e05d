#ifndef NEBULA_COMMON_STRING_UTIL_H_
#define NEBULA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nebula {

/// ASCII-lowercases a string. Nebula's matching pipeline is case-insensitive
/// throughout, so most inputs are normalized through this.
std::string ToLower(std::string_view s);

/// ASCII-uppercases a string.
std::string ToUpper(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any ASCII whitespace run; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive equality for ASCII strings.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if every character is an ASCII digit (non-empty).
bool IsAllDigits(std::string_view s);

/// True if the string parses as a decimal integer (optional leading '-').
bool LooksLikeInteger(std::string_view s);

/// True if the string parses as a floating-point literal.
bool LooksLikeNumber(std::string_view s);

/// Checked decimal parses for text read back from disk or typed by a
/// person, built on std::from_chars (locale-independent, and it
/// round-trips "%.17g"). The whole field must be consumed, else nullopt.
/// No field takes a space, a '+' or an overflow; an unsigned field takes
/// no sign at all, a signed one a leading '-'; a double must be finite.
std::optional<uint64_t> ParseUint64(std::string_view s);
std::optional<int64_t> ParseInt64(std::string_view s);
std::optional<double> ParseFiniteDouble(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace nebula

#endif  // NEBULA_COMMON_STRING_UTIL_H_
