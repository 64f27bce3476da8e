#include "image/fits.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstring>
#include <fstream>

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

std::uint32_t read_be(const std::uint8_t* p, int n) {
  std::uint32_t v = 0;
  for (int i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void FitsHeader::upsert(FitsCard card) {
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
  upsert(FitsCard{keyword, value ? "T" : "F", comment, false});
}

void FitsHeader::set_int(const std::string& keyword, long long value,
                         const std::string& comment) {
  upsert(FitsCard{keyword, format("%lld", value), comment, false});
}

void FitsHeader::set_real(const std::string& keyword, double value,
                          const std::string& comment) {
  upsert(FitsCard{keyword, format("%.14G", value), comment, false});
}

void FitsHeader::set_string(const std::string& keyword, const std::string& value,
                            const std::string& comment) {
  upsert(FitsCard{keyword, value, comment, true});
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
  if (bytes.size() < kRecord || bytes.size() % kCard != 0) {
    return Error(ErrorCode::kParseError, "FITS stream shorter than one record");
  }
  FitsFile out;
  std::size_t pos = 0;
  bool saw_end = false;
  // --- parse header cards ---
  while (pos + kCard <= bytes.size()) {
    std::string card(reinterpret_cast<const char*>(&bytes[pos]), kCard);
    pos += kCard;
    const std::string keyword{trim(card.substr(0, 8))};
    if (keyword == "END") {
      saw_end = true;
      break;
    }
    if (keyword.empty() || keyword == "COMMENT" || keyword == "HISTORY") continue;
    if (card.size() < 10 || card[8] != '=') continue;
    std::string value_field = card.substr(10);
    FitsCard parsed;
    parsed.keyword = keyword;
    const std::string_view vtrim = trim(value_field);
    if (!vtrim.empty() && vtrim.front() == '\'') {
      // String value: scan for the closing quote, honoring '' escapes.
      std::string s;
      bool closed = false;
      for (std::size_t i = 1; i < vtrim.size(); ++i) {
        if (vtrim[i] == '\'') {
          if (i + 1 < vtrim.size() && vtrim[i + 1] == '\'') {
            s += '\'';
            ++i;
          } else {
            closed = true;
            break;
          }
        } else {
          s += vtrim[i];
        }
      }
      if (!closed) {
        return Error(ErrorCode::kParseError, "unterminated string in card " + keyword);
      }
      // FITS strings have significant leading, insignificant trailing blanks.
      while (!s.empty() && s.back() == ' ') s.pop_back();
      parsed.value = s;
      parsed.is_string = true;
    } else {
      // Value ends at the comment slash (if any).
      const std::size_t slash = value_field.find('/');
      parsed.value = std::string(trim(value_field.substr(0, slash)));
      if (slash != std::string::npos) {
        parsed.comment = std::string(trim(value_field.substr(slash + 1)));
      }
    }
    if (parsed.is_string) {
      out.header.set_string(parsed.keyword, parsed.value, parsed.comment);
    } else {
      // Re-enter the card through the typed setters, dispatching on content.
      if (auto iv = parse_int(parsed.value)) {
        out.header.set_int(parsed.keyword, *iv, parsed.comment);
      } else if (auto dv = parse_double(parsed.value)) {
        out.header.set_real(parsed.keyword, *dv, parsed.comment);
      } else if (parsed.value == "T" || parsed.value == "F") {
        out.header.set_logical(parsed.keyword, parsed.value == "T", parsed.comment);
      } else {
        out.header.set_string(parsed.keyword, parsed.value, parsed.comment);
      }
    }
  }
  if (!saw_end) return Error(ErrorCode::kParseError, "no END card in FITS header");

  // --- structural keywords ---
  const auto simple = out.header.get_logical("SIMPLE");
  if (!simple || !*simple) return Error(ErrorCode::kParseError, "SIMPLE != T");
  const auto bitpix = out.header.get_int("BITPIX");
  const auto naxis = out.header.get_int("NAXIS");
  if (!bitpix || !naxis) return Error(ErrorCode::kParseError, "missing BITPIX/NAXIS");
  if (*naxis != 2) {
    return Error(ErrorCode::kParseError, format("NAXIS=%lld unsupported (need 2)",
                                                static_cast<long long>(*naxis)));
  }
  const auto naxis1 = out.header.get_int("NAXIS1");
  const auto naxis2 = out.header.get_int("NAXIS2");
  // Image dimensions are ints: anything outside [1, INT_MAX] is hostile,
  // not a large image.
  if (!naxis1 || !naxis2 || *naxis1 < 1 || *naxis2 < 1 || *naxis1 > INT_MAX ||
      *naxis2 > INT_MAX) {
    return Error(ErrorCode::kParseError, "bad NAXIS1/NAXIS2");
  }
  if (*bitpix != -32 && *bitpix != 32 && *bitpix != 16 && *bitpix != 8) {
    return Error(ErrorCode::kParseError,
                 format("unsupported BITPIX %lld", static_cast<long long>(*bitpix)));
  }
  out.bitpix = static_cast<int>(*bitpix);
  const double bscale = out.header.get_real("BSCALE").value_or(1.0);
  const double bzero = out.header.get_real("BZERO").value_or(0.0);

  // Data unit starts at the next record boundary after END.
  pos = round_to_record(pos);

  const int w = static_cast<int>(*naxis1);
  const int h = static_cast<int>(*naxis2);
  // w * h < 2^62 cannot wrap, and comparing the pixel count with what the
  // remaining bytes hold keeps the check itself overflow-free, so the Image
  // below is never larger than the input can fill.
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t bytes_per = static_cast<std::size_t>(std::abs(out.bitpix) / 8);
  const std::size_t remaining = pos < bytes.size() ? bytes.size() - pos : 0;
  if (n > remaining / bytes_per) {
    return Error(ErrorCode::kParseError, "FITS data unit truncated");
  }
  out.data = Image(w, h);
  const std::uint8_t* p = &bytes[pos];
  for (std::size_t i = 0; i < n; ++i, p += bytes_per) {
    double v = 0.0;
    switch (out.bitpix) {
      case -32: {
        const std::uint32_t u = read_be(p, 4);
        float f;
        std::memcpy(&f, &u, 4);
        v = f;
        break;
      }
      case 32:
        v = static_cast<std::int32_t>(read_be(p, 4));
        break;
      case 16:
        v = static_cast<std::int16_t>(static_cast<std::uint16_t>(read_be(p, 2)));
        break;
      case 8:
        v = p[0];
        break;
    }
    out.data.pixels()[i] = static_cast<float>(bscale * v + bzero);
  }
  return out;
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
