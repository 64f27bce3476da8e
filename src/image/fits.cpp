#include "image/fits.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string_view>

#include "common/strings.hpp"

namespace nvo::image {

namespace {

constexpr std::size_t kRecord = 2880;
constexpr std::size_t kCard = 80;

std::string format_card(const FitsCard& card) {
  // KEYWORD = value / comment, padded to 80 columns.
  std::string out = card.keyword;
  out.resize(8, ' ');
  if (card.keyword == "COMMENT" || card.keyword == "HISTORY" || card.keyword == "END") {
    out += card.value;
  } else {
    out += "= ";
    std::string value;
    if (card.is_string) {
      // Fixed format: quoted string starting at column 11, closing quote
      // no earlier than column 20.
      std::string quoted = "'" + replace_all(card.value, "'", "''");
      while (quoted.size() < 9) quoted += ' ';
      quoted += "'";
      value = quoted;
    } else {
      // Right-justify in columns 11-30 per fixed format.
      value = card.value;
      if (value.size() < 20) value.insert(0, 20 - value.size(), ' ');
    }
    out += value;
    if (!card.comment.empty()) {
      out += " / ";
      out += card.comment;
    }
  }
  if (out.size() > kCard) out.resize(kCard);
  out.resize(kCard, ' ');
  return out;
}

std::size_t round_to_record(std::size_t n) { return (n + kRecord - 1) / kRecord * kRecord; }

void pad_to_record(std::vector<std::uint8_t>& bytes, std::uint8_t fill) {
  bytes.resize(round_to_record(bytes.size()), fill);
}

void append_card(std::vector<std::uint8_t>& bytes, const FitsCard& card) {
  const std::string s = format_card(card);
  bytes.insert(bytes.end(), s.begin(), s.end());
}

/// Cards write_fits emits itself; header copies of them are dropped.
bool is_structural(const std::string& keyword) {
  return keyword == "SIMPLE" || keyword == "BITPIX" || starts_with(keyword, "NAXIS") ||
         keyword == "END";
}

/// Bytes per encoded pixel. An unsupported BITPIX is written as float.
std::size_t encoded_bytes_per_pixel(int bitpix) {
  switch (bitpix) {
    case 16: return 2;
    case 8: return 1;
    default: return 4;
  }
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
}

void store_be16(std::uint8_t* p, std::uint16_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap16(v);
  std::memcpy(p, &v, sizeof v);
}

/// Rounds a pixel to the nearest integer and clamps it into [lo, hi].
long long quantize(float v, long long lo, long long hi) {
  return std::clamp<long long>(std::llround(static_cast<double>(v)), lo, hi);
}

std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  return v;
}

std::uint16_t load_be16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap16(v);
  return v;
}

// --- reader -----------------------------------------------------------------

/// A structural card as the header scan found it (empty when absent). When
/// a keyword repeats, the last card wins, as in FitsHeader.
struct CardValue {
  std::string_view text;   ///< trimmed value, up to any comment slash
  bool is_string = false;  ///< quoted: neither a number nor a logical
};

/// The cards the data unit depends on, plus where the header ends.
struct HeaderScan {
  CardValue simple, bitpix, naxis, naxis1, naxis2, bscale, bzero;
  std::size_t data_at = 0;  ///< first byte of the data unit
};

CardValue* structural_slot(HeaderScan& scan, std::string_view keyword) {
  if (keyword == "SIMPLE") return &scan.simple;
  if (keyword == "BITPIX") return &scan.bitpix;
  if (keyword == "NAXIS") return &scan.naxis;
  if (keyword == "NAXIS1") return &scan.naxis1;
  if (keyword == "NAXIS2") return &scan.naxis2;
  if (keyword == "BSCALE") return &scan.bscale;
  if (keyword == "BZERO") return &scan.bzero;
  return nullptr;
}

/// The body of a quoted value with '' unescaped and trailing blanks dropped
/// (FITS strings have significant leading, insignificant trailing blanks).
std::string unquote(std::string_view body) {
  std::string s;
  s.reserve(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    s += body[i];
    if (body[i] == '\'') ++i;  // the scan only lets doubled quotes through
  }
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

/// std::isspace in the "C" locale, inline: the scan trims ~1000 bytes per
/// cutout.
bool is_blank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view trim_front(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && is_blank(s[b])) ++b;
  return s.substr(b);
}

std::string_view trim_blanks(std::string_view s) {
  s = trim_front(s);
  std::size_t e = s.size();
  while (e > 0 && is_blank(s[e - 1])) --e;
  return s.substr(0, e);
}

/// Walks the header at fixed 80-byte offsets up to END, recording the
/// structural cards in `scan`. With a `header`, every keyed card is also
/// stored there as the trimmed text of its value, with its comment (quoted
/// values included, so write_fits reproduces the cards it wrote). Fails
/// when END is missing or a quoted value is unterminated.
Status scan_header(std::string_view bytes, HeaderScan& scan, FitsHeader* header) {
  for (std::size_t pos = 0; pos + kCard <= bytes.size(); pos += kCard) {
    const std::string_view card = bytes.substr(pos, kCard);
    const std::string_view keyword = trim_blanks(card.substr(0, 8));
    if (keyword == "END") {
      scan.data_at = round_to_record(pos + kCard);
      return Status::Ok();
    }
    if (keyword.empty() || keyword == "COMMENT" || keyword == "HISTORY" || card[8] != '=') {
      continue;
    }
    CardValue* slot = structural_slot(scan, keyword);
    const std::string_view field = card.substr(10);
    const std::string_view value = trim_front(field);
    CardValue v;
    std::string_view comment;
    if (!value.empty() && value.front() == '\'') {
      // Every quoted value is checked, whether or not anyone reads it.
      std::size_t close = 1;
      while (close < value.size() &&
             (value[close] != '\'' ||
              (close + 1 < value.size() && value[close + 1] == '\''))) {
        close += value[close] == '\'' ? 2 : 1;
      }
      if (close >= value.size()) {
        return Error(ErrorCode::kParseError,
                     "unterminated string in card " + std::string(keyword));
      }
      v.text = value.substr(1, close - 1);
      v.is_string = true;
      if (header != nullptr) {
        const std::string_view rest = value.substr(close + 1);
        const std::size_t slash = rest.find('/');
        if (slash != std::string_view::npos) comment = trim_blanks(rest.substr(slash + 1));
      }
    } else if (slot != nullptr || header != nullptr) {
      const std::size_t slash = field.find('/');
      v.text = trim_blanks(field.substr(0, slash));
      if (slash != std::string_view::npos) comment = trim_blanks(field.substr(slash + 1));
    }
    if (slot != nullptr) *slot = v;
    if (header != nullptr) {
      header->set_card(FitsCard{std::string(keyword),
                                v.is_string ? unquote(v.text) : std::string(v.text),
                                std::string(comment), v.is_string});
    }
  }
  return Error(ErrorCode::kParseError, "no END card in FITS header");
}

/// Drops the leading '+' that strtoll/strtod accept and from_chars does not;
/// a sign after it makes the text unparsable.
std::string_view unsigned_plus(std::string_view s) {
  if (s.empty() || s.front() != '+') return s;
  s.remove_prefix(1);
  return !s.empty() && s.front() == '-' ? std::string_view{} : s;
}

/// The value as a T spanning the whole text: a plain decimal integer for
/// long long, a real at full precision for double.
template <typename T>
std::optional<T> number_value(const CardValue& v) {
  if (v.is_string) return std::nullopt;
  const std::string_view s = unsigned_plus(v.text);
  T out{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return out;
}

/// What the data unit holds and where, once every structural check passed.
struct Layout {
  int width = 0;
  int height = 0;
  int bitpix = 0;
  double bscale = 1.0;
  double bzero = 0.0;
  std::size_t data_at = 0;
};

Expected<Layout> check_structure(const HeaderScan& scan, std::size_t size) {
  if (scan.simple.is_string || scan.simple.text != "T") {
    return Error(ErrorCode::kParseError, "SIMPLE != T");
  }
  const auto bitpix = number_value<long long>(scan.bitpix);
  const auto naxis = number_value<long long>(scan.naxis);
  if (!bitpix || !naxis) return Error(ErrorCode::kParseError, "missing BITPIX/NAXIS");
  if (*naxis != 2) {
    return Error(ErrorCode::kParseError, format("NAXIS=%lld unsupported (need 2)", *naxis));
  }
  const auto naxis1 = number_value<long long>(scan.naxis1);
  const auto naxis2 = number_value<long long>(scan.naxis2);
  // Image dimensions are ints: anything outside [1, INT_MAX] is hostile,
  // not a large image.
  if (!naxis1 || !naxis2 || *naxis1 < 1 || *naxis2 < 1 || *naxis1 > INT_MAX ||
      *naxis2 > INT_MAX) {
    return Error(ErrorCode::kParseError, "bad NAXIS1/NAXIS2");
  }
  if (*bitpix != -32 && *bitpix != 32 && *bitpix != 16 && *bitpix != 8) {
    return Error(ErrorCode::kParseError, format("unsupported BITPIX %lld", *bitpix));
  }
  Layout out;
  out.width = static_cast<int>(*naxis1);
  out.height = static_cast<int>(*naxis2);
  out.bitpix = static_cast<int>(*bitpix);
  // An unreadable BSCALE/BZERO leaves the default, as a missing one does.
  out.bscale = number_value<double>(scan.bscale).value_or(1.0);
  out.bzero = number_value<double>(scan.bzero).value_or(0.0);
  out.data_at = scan.data_at;
  // w * h < 2^62 cannot wrap, and comparing the pixel count with what the
  // remaining bytes hold keeps the check itself overflow-free, so the image
  // is never sized larger than the input can fill.
  const std::size_t n =
      static_cast<std::size_t>(out.width) * static_cast<std::size_t>(out.height);
  const std::size_t bytes_per = static_cast<std::size_t>(std::abs(out.bitpix) / 8);
  const std::size_t remaining = out.data_at < size ? size - out.data_at : 0;
  if (n > remaining / bytes_per) {
    return Error(ErrorCode::kParseError, "FITS data unit truncated");
  }
  return out;
}

/// out[i] = float(bscale * sample(p + i * stride) + bzero): one loop per
/// BITPIX, with the sample's byte width known at compile time.
template <std::size_t kStride, typename Sample>
void scale_pixels(const std::uint8_t* p, std::size_t n, double bscale, double bzero,
                  float* out, Sample sample) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(bscale * sample(p + kStride * i) + bzero);
  }
}

void decode_pixels(const std::uint8_t* p, const Layout& l, Image& frame) {
  frame.reshape(l.width, l.height);
  const std::size_t n = frame.size();
  float* out = frame.data();
  switch (l.bitpix) {
    case -32:
      scale_pixels<4>(p, n, l.bscale, l.bzero, out, [](const std::uint8_t* q) {
        return static_cast<double>(std::bit_cast<float>(load_be32(q)));
      });
      break;
    case 32:
      scale_pixels<4>(p, n, l.bscale, l.bzero, out, [](const std::uint8_t* q) {
        return static_cast<double>(static_cast<std::int32_t>(load_be32(q)));
      });
      break;
    case 16:
      scale_pixels<2>(p, n, l.bscale, l.bzero, out, [](const std::uint8_t* q) {
        return static_cast<double>(static_cast<std::int16_t>(load_be16(q)));
      });
      break;
    default:  // 8: check_structure admits nothing else
      scale_pixels<1>(p, n, l.bscale, l.bzero, out,
                      [](const std::uint8_t* q) { return static_cast<double>(*q); });
      break;
  }
}

/// The one decoder behind read_fits and decode_fits_pixels: structural scan,
/// checks, then the pixel loop. `frame` is only written once every check
/// passed.
Expected<Layout> decode(const std::vector<std::uint8_t>& bytes, Image& frame,
                        FitsHeader* header) {
  if (bytes.size() < kRecord || bytes.size() % kCard != 0) {
    return Error(ErrorCode::kParseError, "FITS stream shorter than one record");
  }
  const std::string_view text(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  HeaderScan scan;
  if (const Status s = scan_header(text, scan, header); !s.ok()) return s.error();
  Expected<Layout> layout = check_structure(scan, bytes.size());
  if (layout.ok()) decode_pixels(bytes.data() + layout->data_at, *layout, frame);
  return layout;
}

}  // namespace

void FitsHeader::set_card(FitsCard card) {
  for (auto& existing : cards_) {
    if (existing.keyword == card.keyword) {
      existing = std::move(card);
      return;
    }
  }
  cards_.push_back(std::move(card));
}

const FitsCard* FitsHeader::find(const std::string& keyword) const {
  for (const auto& card : cards_) {
    if (card.keyword == keyword) return &card;
  }
  return nullptr;
}

void FitsHeader::set_logical(const std::string& keyword, bool value,
                             const std::string& comment) {
  set_card(FitsCard{keyword, value ? "T" : "F", comment, false});
}

void FitsHeader::set_int(const std::string& keyword, long long value,
                         const std::string& comment) {
  set_card(FitsCard{keyword, format("%lld", value), comment, false});
}

void FitsHeader::set_real(const std::string& keyword, double value,
                          const std::string& comment) {
  set_card(FitsCard{keyword, format("%.14G", value), comment, false});
}

void FitsHeader::set_string(const std::string& keyword, const std::string& value,
                            const std::string& comment) {
  set_card(FitsCard{keyword, value, comment, true});
}

std::optional<bool> FitsHeader::get_logical(const std::string& keyword) const {
  const FitsCard* card = find(keyword);
  if (!card || card->is_string) return std::nullopt;
  const std::string_view v = trim(card->value);
  if (v == "T") return true;
  if (v == "F") return false;
  return std::nullopt;
}

std::optional<long long> FitsHeader::get_int(const std::string& keyword) const {
  const FitsCard* card = find(keyword);
  if (!card || card->is_string) return std::nullopt;
  return parse_int(card->value);
}

std::optional<double> FitsHeader::get_real(const std::string& keyword) const {
  const FitsCard* card = find(keyword);
  if (!card || card->is_string) return std::nullopt;
  return parse_double(card->value);
}

std::optional<std::string> FitsHeader::get_string(const std::string& keyword) const {
  const FitsCard* card = find(keyword);
  if (!card) return std::nullopt;
  if (card->is_string) return card->value;
  return std::string(trim(card->value));
}

bool FitsHeader::has(const std::string& keyword) const { return find(keyword) != nullptr; }

std::vector<std::uint8_t> write_fits(const FitsFile& file) {
  std::vector<std::uint8_t> bytes;
  // Exact final size: a cached payload pins no spare capacity.
  bytes.reserve(fits_serialized_size(file));

  // --- header ---
  append_card(bytes, {"SIMPLE", "T", "conforms to FITS standard", false});
  append_card(bytes, {"BITPIX", format("%d", file.bitpix), "bits per data value", false});
  append_card(bytes, {"NAXIS", "2", "number of axes", false});
  append_card(bytes, {"NAXIS1", format("%d", file.data.width()), "", false});
  append_card(bytes, {"NAXIS2", format("%d", file.data.height()), "", false});
  for (const auto& card : file.header.cards()) {
    if (!is_structural(card.keyword)) append_card(bytes, card);
  }
  append_card(bytes, {"END", "", "", false});
  // Header padding is ASCII spaces.
  pad_to_record(bytes, ' ');

  // --- data unit, big endian, encoded in place; padding is zero bytes ---
  const std::size_t n = file.data.size();
  const std::size_t data_at = bytes.size();
  bytes.resize(data_at + round_to_record(n * encoded_bytes_per_pixel(file.bitpix)), 0);
  std::uint8_t* out = bytes.data() + data_at;
  const float* px = file.data.pixels().data();
  switch (file.bitpix) {
    case 32:
      for (std::size_t i = 0; i < n; ++i) {
        store_be32(out + 4 * i, static_cast<std::uint32_t>(static_cast<std::int32_t>(
                                    quantize(px[i], INT32_MIN, INT32_MAX))));
      }
      break;
    case 16:
      for (std::size_t i = 0; i < n; ++i) {
        store_be16(out + 2 * i, static_cast<std::uint16_t>(static_cast<std::int16_t>(
                                    quantize(px[i], INT16_MIN, INT16_MAX))));
      }
      break;
    case 8:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(quantize(px[i], 0, 255));
      }
      break;
    default:
      // -32, and any unsupported BITPIX (a programming error): IEEE float.
      for (std::size_t i = 0; i < n; ++i) {
        store_be32(out + 4 * i, std::bit_cast<std::uint32_t>(px[i]));
      }
      break;
  }
  return bytes;
}

Expected<FitsFile> read_fits(const std::vector<std::uint8_t>& bytes) {
  FitsFile out;
  const Expected<Layout> layout = decode(bytes, out.data, &out.header);
  if (!layout.ok()) return layout.error();
  out.bitpix = layout->bitpix;
  return out;
}

Status decode_fits_pixels(const std::vector<std::uint8_t>& bytes, Image& frame) {
  const Expected<Layout> layout = decode(bytes, frame, nullptr);
  if (!layout.ok()) return layout.error();
  return Status::Ok();
}

Status write_fits_file(const std::string& path, const FitsFile& file) {
  const std::vector<std::uint8_t> bytes = write_fits(file);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error(ErrorCode::kIoError, "cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) return Error(ErrorCode::kIoError, "short write to " + path);
  return Status::Ok();
}

Expected<FitsFile> read_fits_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(ErrorCode::kIoError, "cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return read_fits(bytes);
}

std::size_t fits_serialized_size(const FitsFile& file) {
  // Header: 5 structural cards + user cards + END, rounded to records.
  std::size_t header_cards = 5 + 1;
  for (const auto& card : file.header.cards()) {
    if (!is_structural(card.keyword)) ++header_cards;
  }
  return round_to_record(header_cards * kCard) +
         round_to_record(file.data.size() * encoded_bytes_per_pixel(file.bitpix));
}

}  // namespace nvo::image
