// Small string utilities shared across modules (VDL parsing, VOTable XML,
// HTTP-style query strings, FITS header cards).
#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
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

/// The bit-exact hex codec of the checkpoint journal and the survey's spill
/// runs: a 64-bit value as 16 lowercase hex digits, a double as the hex of
/// its IEEE-754 bit pattern, so a decoded double is bit-identical to the one
/// encoded. Defined here, inline, because the spill codec is on the survey's
/// per-galaxy path.
inline void append_hex_u64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(v >> shift) & 0xF]);
  }
}

inline void append_hex_double(std::string& out, double v) {
  append_hex_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Parses hex digits back; nullopt for an empty field, any non-hex
/// character (a sign, a `0x` prefix or whitespace included) or a value
/// wider than 64 bits. Bytes from a journal or spill run are untrusted, so
/// a malformed field must reject its record, never decode as 0.
inline std::optional<std::uint64_t> parse_hex_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

inline std::optional<double> parse_hex_double(std::string_view s) {
  const std::optional<std::uint64_t> bits = parse_hex_u64(s);
  if (!bits) return std::nullopt;
  return std::bit_cast<double>(*bits);
}

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

}  // namespace nvo
