#ifndef TOPKDUP_COMMON_STRINGS_H_
#define TOPKDUP_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace topkdup {

/// ASCII-lowercases a copy of `s`.
std::string ToLowerAscii(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Splits `s` on the single character `sep`. Empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace. Empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Appends `s` with JSON string escaping, without quotes: '"' and '\\'
/// take a backslash, and every other byte below 0x20 becomes \u00XX.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// `s` as a quoted JSON string literal (AppendJsonEscaped's rule).
std::string JsonString(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_STRINGS_H_
