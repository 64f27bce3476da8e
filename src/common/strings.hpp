// Small string utilities shared across modules (VDL parsing, VOTable XML,
// HTTP-style query strings, FITS header cards).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nvo {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Splits on any whitespace run; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Joins elements with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a double; returns nullopt on any trailing garbage.
std::optional<double> parse_double(std::string_view s);

/// Parses a signed 64-bit integer; returns nullopt on any trailing garbage.
std::optional<long long> parse_int(std::string_view s);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point formatting helper (value with `digits` decimals). The
/// bytes are printf("%.*f")'s: std::to_chars in fixed format with a
/// precision is specified to match it, and it needs no format parsing or
/// locale, so hot paths can append without a vsnprintf per value.
std::string fixed(double value, int digits);
void append_fixed(std::string& out, double value, int digits);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

}  // namespace nvo
