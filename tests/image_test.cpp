// Tests for the raster type, FITS serialization, WCS, and rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "image/fits.hpp"
#include "image/image.hpp"
#include "image/render.hpp"
#include "image/wcs.hpp"
#include "sim/cluster.hpp"
#include "sim/survey.hpp"
#include "sim/universe.hpp"

namespace nvo::image {
namespace {

// ---------------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------------

TEST(Image, ConstructionAndFill) {
  Image img(8, 4, 2.5f);
  EXPECT_EQ(img.width(), 8);
  EXPECT_EQ(img.height(), 4);
  EXPECT_EQ(img.size(), 32u);
  EXPECT_FLOAT_EQ(img.at(7, 3), 2.5f);
  EXPECT_DOUBLE_EQ(img.total_flux(), 32 * 2.5);
}

TEST(Image, AtOrOutOfBounds) {
  Image img(4, 4, 1.0f);
  EXPECT_FLOAT_EQ(img.at_or(-1, 0, 9.0f), 9.0f);
  EXPECT_FLOAT_EQ(img.at_or(0, 4, 9.0f), 9.0f);
  EXPECT_FLOAT_EQ(img.at_or(3, 3, 9.0f), 1.0f);
}

TEST(Image, BilinearInterpolatesMidpoint) {
  Image img(2, 2);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 2.0f;
  img.at(0, 1) = 4.0f;
  img.at(1, 1) = 6.0f;
  EXPECT_NEAR(img.sample_bilinear(0.5, 0.5), 3.0, 1e-6);
  EXPECT_NEAR(img.sample_bilinear(0.0, 0.0), 0.0, 1e-6);
  EXPECT_NEAR(img.sample_bilinear(1.0, 1.0), 6.0, 1e-6);
}

TEST(Image, CutoutInterior) {
  Image img(10, 10);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) img.at(x, y) = static_cast<float>(10 * y + x);
  }
  const Image cut = img.cutout(2, 3, 4, 4);
  EXPECT_EQ(cut.width(), 4);
  EXPECT_FLOAT_EQ(cut.at(0, 0), 32.0f);
  EXPECT_FLOAT_EQ(cut.at(3, 3), 65.0f);
}

TEST(Image, CutoutPadsBeyondEdges) {
  Image img(4, 4, 7.0f);
  const Image cut = img.cutout(-2, -2, 8, 8, -1.0f);
  EXPECT_FLOAT_EQ(cut.at(0, 0), -1.0f);   // padded
  EXPECT_FLOAT_EQ(cut.at(2, 2), 7.0f);    // real data
  EXPECT_FLOAT_EQ(cut.at(7, 7), -1.0f);   // padded
}

TEST(Image, Rotate180SwapsOppositePixels) {
  Image img(9, 9, 0.0f);
  img.at(2, 3) = 5.0f;
  const Image rot = img.rotate180_about(4.0, 4.0);
  EXPECT_NEAR(rot.at(6, 5), 5.0f, 1e-5);  // (2,3) mirrored through (4,4)
  EXPECT_NEAR(rot.at(2, 3), 0.0f, 1e-5);
}

TEST(Image, Rotate180TwiceIsIdentityForSymmetricCenter) {
  Image img(17, 17, 0.0f);
  nvo::Rng rng(5);
  for (float& v : img.pixels()) v = static_cast<float>(rng.uniform());
  const Image twice = img.rotate180_about(8.0, 8.0).rotate180_about(8.0, 8.0);
  for (int y = 2; y < 15; ++y) {
    for (int x = 2; x < 15; ++x) {
      EXPECT_NEAR(twice.at(x, y), img.at(x, y), 1e-5);
    }
  }
}

TEST(Image, AddAndScale) {
  Image a(3, 3, 1.0f), b(3, 3, 2.0f);
  a.add(b);
  EXPECT_FLOAT_EQ(a.at(1, 1), 3.0f);
  a.scale(0.5f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 1.5f);
}

// ---------------------------------------------------------------------------
// FITS
// ---------------------------------------------------------------------------

Image make_test_image(int w, int h) {
  Image img(w, h);
  nvo::Rng rng(99);
  for (float& v : img.pixels()) v = static_cast<float>(rng.uniform(0.0, 1000.0));
  return img;
}

TEST(Fits, RoundTripFloat32) {
  FitsFile f;
  f.data = make_test_image(31, 17);
  f.bitpix = -32;
  f.header.set_string("OBJECT", "TEST_GAL", "test object");
  f.header.set_real("REDSHIFT", 0.027886, "");
  const auto bytes = write_fits(f);
  EXPECT_EQ(bytes.size() % 2880u, 0u);
  auto parsed = read_fits(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->data.width(), 31);
  EXPECT_EQ(parsed->data.height(), 17);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_FLOAT_EQ(parsed->data.pixels()[i], f.data.pixels()[i]);
  }
  EXPECT_EQ(parsed->header.get_string("OBJECT").value(), "TEST_GAL");
  EXPECT_NEAR(parsed->header.get_real("REDSHIFT").value(), 0.027886, 1e-9);
  // Comments survive too, quoted cards' included, so encoding the decoded
  // file reproduces the bytes (the archive's frame store relies on it).
  EXPECT_EQ(write_fits(parsed.value()), bytes);
}

TEST(Fits, RoundTripInt16Quantizes) {
  FitsFile f;
  f.data = Image(8, 8);
  f.data.at(3, 3) = 1234.4f;
  f.data.at(4, 4) = -77.6f;
  f.bitpix = 16;
  auto parsed = read_fits(write_fits(f));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FLOAT_EQ(parsed->data.at(3, 3), 1234.0f);
  EXPECT_FLOAT_EQ(parsed->data.at(4, 4), -78.0f);
}

TEST(Fits, RoundTripInt32AndUint8) {
  for (int bitpix : {32, 8}) {
    FitsFile f;
    f.data = Image(5, 5, 100.0f);
    f.bitpix = bitpix;
    auto parsed = read_fits(write_fits(f));
    ASSERT_TRUE(parsed.ok()) << "bitpix " << bitpix;
    EXPECT_FLOAT_EQ(parsed->data.at(2, 2), 100.0f);
  }
}

TEST(Fits, BscaleBzeroApplied) {
  FitsFile f;
  f.data = Image(4, 4, 10.0f);
  f.bitpix = 16;
  f.header.set_real("BSCALE", 2.0);
  f.header.set_real("BZERO", 5.0);
  auto parsed = read_fits(write_fits(f));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FLOAT_EQ(parsed->data.at(0, 0), 25.0f);  // 10 * 2 + 5
}

TEST(Fits, StringEscaping) {
  FitsFile f;
  f.data = Image(2, 2);
  f.header.set_string("OBSERVER", "O'Mullane", "quote in value");
  auto parsed = read_fits(write_fits(f));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.get_string("OBSERVER").value(), "O'Mullane");
}

TEST(Fits, RejectsGarbage) {
  std::vector<std::uint8_t> junk(2880, 'x');
  EXPECT_FALSE(read_fits(junk).ok());
  EXPECT_FALSE(read_fits({}).ok());
}

TEST(Fits, RejectsTruncatedData) {
  FitsFile f;
  f.data = make_test_image(64, 64);
  auto bytes = write_fits(f);
  bytes.resize(bytes.size() - 2880);  // drop the last data record
  EXPECT_FALSE(read_fits(bytes).ok());
}

TEST(Fits, SerializedSizePredictionMatches) {
  FitsFile f;
  f.data = make_test_image(64, 64);
  f.bitpix = -32;
  f.header.set_string("OBJECT", "X", "");
  image::Wcs::centered({10, 10}, 64, 64, 1.0 / 3600).to_header(f.header);
  EXPECT_EQ(fits_serialized_size(f), write_fits(f).size());
}

// The per-byte data encoder write_fits used before the bulk byteswap loops,
// kept here as the oracle for the byte-identity test below: one push per
// output byte into a growing vector, header cards formatted the same way.
std::string reference_card(const FitsCard& card) {
  std::string out = card.keyword;
  out.resize(8, ' ');
  if (card.keyword == "END") {
    out += card.value;
  } else {
    out += "= ";
    std::string value;
    if (card.is_string) {
      std::string quoted = "'" + card.value;
      while (quoted.size() < 9) quoted += ' ';
      value = quoted + "'";
    } else {
      value = card.value;
      if (value.size() < 20) value.insert(0, 20 - value.size(), ' ');
    }
    out += value;
    if (!card.comment.empty()) out += " / " + card.comment;
  }
  out.resize(80, ' ');
  return out;
}

void reference_push_be(std::vector<std::uint8_t>& bytes, std::uint32_t v, int n) {
  for (int i = n - 1; i >= 0; --i) {
    bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::vector<std::uint8_t> reference_write_fits(const FitsFile& file) {
  std::vector<std::uint8_t> bytes;
  const auto card = [&](const FitsCard& c) {
    const std::string s = reference_card(c);
    bytes.insert(bytes.end(), s.begin(), s.end());
  };
  const auto pad = [&](std::uint8_t fill) {
    while (bytes.size() % 2880 != 0) bytes.push_back(fill);
  };
  card({"SIMPLE", "T", "conforms to FITS standard", false});
  card({"BITPIX", std::to_string(file.bitpix), "bits per data value", false});
  card({"NAXIS", "2", "number of axes", false});
  card({"NAXIS1", std::to_string(file.data.width()), "", false});
  card({"NAXIS2", std::to_string(file.data.height()), "", false});
  for (const FitsCard& c : file.header.cards()) card(c);  // no quotes/structurals
  card({"END", "", "", false});
  pad(' ');
  for (const float v : file.data.pixels()) {
    const long long r = std::llround(static_cast<double>(v));
    switch (file.bitpix) {
      case -32: {
        std::uint32_t u;
        std::memcpy(&u, &v, 4);
        reference_push_be(bytes, u, 4);
        break;
      }
      case 32:
        reference_push_be(bytes, static_cast<std::uint32_t>(static_cast<std::int32_t>(
                                     std::clamp<long long>(r, INT32_MIN, INT32_MAX))),
                          4);
        break;
      case 16:
        reference_push_be(bytes, static_cast<std::uint16_t>(static_cast<std::int16_t>(
                                     std::clamp<long long>(r, INT16_MIN, INT16_MAX))),
                          2);
        break;
      case 8:
        bytes.push_back(static_cast<std::uint8_t>(std::clamp<long long>(r, 0, 255)));
        break;
    }
  }
  pad(0);
  return bytes;
}

TEST(Fits, BulkEncoderIsByteIdenticalToPerByteEncoder) {
  // Pixels that exercise every encoder branch: rounding halves, negatives,
  // and values past each integer type's clamp range.
  FitsFile f;
  f.data = Image(37, 23);
  nvo::Rng rng(7);
  for (float& v : f.data.pixels()) v = static_cast<float>(rng.uniform(-1000.0, 1000.0));
  const float extremes[] = {0.5f, -0.5f, 1.5f, 255.4f, 255.6f, -1.0f, 32767.5f,
                            -32768.7f, 70000.0f, -70000.0f, 3.0e9f, -3.0e9f};
  for (std::size_t i = 0; i < std::size(extremes); ++i) f.data.pixels()[i * 7] = extremes[i];
  f.header.set_string("OBJECT", "BYTES", "encoder oracle");
  f.header.set_real("REDSHIFT", 0.172, "");
  for (const int bitpix : {-32, 32, 16, 8}) {
    f.bitpix = bitpix;
    const std::vector<std::uint8_t> bytes = write_fits(f);
    EXPECT_EQ(bytes, reference_write_fits(f)) << "BITPIX " << bitpix;
    EXPECT_EQ(bytes.size() % 2880, 0u) << "BITPIX " << bitpix;
    EXPECT_EQ(bytes.capacity(), bytes.size()) << "BITPIX " << bitpix;
  }
}

/// An 80-column card "KEYWORD = <value right-justified to column 30>".
std::string value_card(const std::string& keyword, const std::string& value) {
  std::string c = keyword;
  c.resize(8, ' ');
  c += "= ";
  c += std::string(value.size() < 20 ? 20 - value.size() : 0, ' ') + value;
  c.resize(80, ' ');
  return c;
}

// A minimal primary header: SIMPLE, BITPIX, NAXIS=2, the given axes, END,
// padded to one record, followed by `data_records` zero records.
std::vector<std::uint8_t> raw_fits(const std::string& bitpix, const std::string& naxis1,
                                   const std::string& naxis2, std::size_t data_records) {
  std::string header = value_card("SIMPLE", "T") + value_card("BITPIX", bitpix) +
                       value_card("NAXIS", "2") + value_card("NAXIS1", naxis1) +
                       value_card("NAXIS2", naxis2);
  std::string end = "END";
  end.resize(80, ' ');
  header += end;
  header.resize(2880, ' ');
  std::vector<std::uint8_t> bytes(header.begin(), header.end());
  bytes.resize(bytes.size() + 2880 * data_records, 0);
  return bytes;
}

TEST(Fits, RawHeaderHelperParses) {
  // Guards the helper the hostile-axis tests below rely on.
  const auto parsed = read_fits(raw_fits("-32", "4", "2", 1));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->data.width(), 4);
  EXPECT_EQ(parsed->data.height(), 2);
}

TEST(Fits, AxesWhoseProductWrapsAreRejected) {
  // 2^31 x 2^31 float pixels: the byte count wraps a 64-bit size_t to 0.
  const auto bytes = raw_fits("-32", "2147483648", "2147483648", 1);
  ASSERT_EQ(bytes.size(), 5760u);
  const auto parsed = read_fits(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParseError);
}

TEST(Fits, AxisPastIntMaxIsRejectedNotTruncated) {
  // 2^32 + 1 would truncate to an int of 1: a one-pixel image.
  const auto parsed = read_fits(raw_fits("-32", "4294967297", "1", 1));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParseError);
}

TEST(Fits, HugeAxesAreRejectedBeforeAllocating) {
  // Axes that fit an int but whose data unit the input cannot hold; with an
  // unsupported BITPIX of 0 a zero-width pixel must not slip past the check.
  for (const char* bitpix : {"-32", "8", "0", "64"}) {
    const auto parsed = read_fits(raw_fits(bitpix, "2147483647", "2147483647", 1));
    ASSERT_FALSE(parsed.ok()) << "BITPIX " << bitpix;
    EXPECT_EQ(parsed.error().code, ErrorCode::kParseError) << "BITPIX " << bitpix;
  }
}

// ---------------------------------------------------------------------------
// Differential FITS decoding against the card-by-card oracle
// ---------------------------------------------------------------------------

std::uint32_t oracle_read_be(const std::uint8_t* p, int n) {
  std::uint32_t v = 0;
  for (int i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}

// The reader read_fits used before the fixed-offset structural scan: every
// card is copied into a std::string, every non-quoted value is re-entered
// through the typed setters (so numbers make a strtod -> "%.14G" -> strtod
// round trip), the structural keywords are then looked up in that header,
// and every pixel goes through a switch on BITPIX. Kept, with shorter error
// messages, as the oracle of the differential tests below.
Expected<FitsFile> oracle_read_fits(const std::vector<std::uint8_t>& bytes) {
  constexpr std::size_t kRecord = 2880;
  constexpr std::size_t kCard = 80;
  if (bytes.size() < kRecord || bytes.size() % kCard != 0) {
    return Error(ErrorCode::kParseError, "FITS stream shorter than one record");
  }
  FitsFile out;
  std::size_t pos = 0;
  bool saw_end = false;
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
      while (!s.empty() && s.back() == ' ') s.pop_back();
      parsed.value = s;
      parsed.is_string = true;
    } else {
      const std::size_t slash = value_field.find('/');
      parsed.value = std::string(trim(value_field.substr(0, slash)));
      if (slash != std::string::npos) {
        parsed.comment = std::string(trim(value_field.substr(slash + 1)));
      }
    }
    if (parsed.is_string) {
      out.header.set_string(parsed.keyword, parsed.value, parsed.comment);
    } else if (auto iv = parse_int(parsed.value)) {
      out.header.set_int(parsed.keyword, *iv, parsed.comment);
    } else if (auto dv = parse_double(parsed.value)) {
      out.header.set_real(parsed.keyword, *dv, parsed.comment);
    } else if (parsed.value == "T" || parsed.value == "F") {
      out.header.set_logical(parsed.keyword, parsed.value == "T", parsed.comment);
    } else {
      out.header.set_string(parsed.keyword, parsed.value, parsed.comment);
    }
  }
  if (!saw_end) return Error(ErrorCode::kParseError, "no END card in FITS header");

  const auto simple = out.header.get_logical("SIMPLE");
  if (!simple || !*simple) return Error(ErrorCode::kParseError, "SIMPLE != T");
  const auto bitpix = out.header.get_int("BITPIX");
  const auto naxis = out.header.get_int("NAXIS");
  if (!bitpix || !naxis) return Error(ErrorCode::kParseError, "missing BITPIX/NAXIS");
  if (*naxis != 2) return Error(ErrorCode::kParseError, "NAXIS unsupported (need 2)");
  const auto naxis1 = out.header.get_int("NAXIS1");
  const auto naxis2 = out.header.get_int("NAXIS2");
  if (!naxis1 || !naxis2 || *naxis1 < 1 || *naxis2 < 1 || *naxis1 > INT_MAX ||
      *naxis2 > INT_MAX) {
    return Error(ErrorCode::kParseError, "bad NAXIS1/NAXIS2");
  }
  if (*bitpix != -32 && *bitpix != 32 && *bitpix != 16 && *bitpix != 8) {
    return Error(ErrorCode::kParseError, "unsupported BITPIX");
  }
  out.bitpix = static_cast<int>(*bitpix);
  const double bscale = out.header.get_real("BSCALE").value_or(1.0);
  const double bzero = out.header.get_real("BZERO").value_or(0.0);
  pos = (pos + kRecord - 1) / kRecord * kRecord;
  const int w = static_cast<int>(*naxis1);
  const int h = static_cast<int>(*naxis2);
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
        const std::uint32_t u = oracle_read_be(p, 4);
        float f;
        std::memcpy(&f, &u, 4);
        v = f;
        break;
      }
      case 32:
        v = static_cast<std::int32_t>(oracle_read_be(p, 4));
        break;
      case 16:
        v = static_cast<std::int16_t>(static_cast<std::uint16_t>(oracle_read_be(p, 2)));
        break;
      case 8:
        v = p[0];
        break;
    }
    out.data.pixels()[i] = static_cast<float>(bscale * v + bzero);
  }
  return out;
}

bool same_pixel_bytes(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Survey-shaped cutouts (WCS, OBJECT, REDSHIFT, MAG cards) written at every
/// supported BITPIX, each with and without BSCALE/BZERO. The first float
/// frame also carries -0.0, NaN, infinities and a denormal.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> fits_corpus(int size) {
  const auto specs = sim::survey_cluster_specs({1, 2000});
  const sim::Cluster cluster = sim::generate_cluster(specs.front(), sky::Cosmology{});
  sim::RenderOptions render;
  render.supersample = 1;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> corpus;
  for (const int bitpix : {-32, 32, 16, 8}) {
    for (const bool scaled : {false, true}) {
      const std::size_t g = corpus.size() % cluster.galaxies.size();
      FitsFile f = sim::synthesize_galaxy_cutout(cluster, cluster.galaxies[g], size, render,
                                                 1, 0.04);
      f.bitpix = bitpix;
      if (scaled) {
        f.header.set_real("BSCALE", 0.37, "physical = BSCALE * stored + BZERO");
        f.header.set_real("BZERO", -12.5);
      }
      if (corpus.empty()) {
        float* px = f.data.data();
        px[0] = -0.0f;
        px[1] = std::numeric_limits<float>::quiet_NaN();
        px[2] = std::numeric_limits<float>::infinity();
        px[3] = -std::numeric_limits<float>::infinity();
        px[4] = std::numeric_limits<float>::denorm_min();
      }
      corpus.emplace_back("BITPIX " + std::to_string(bitpix) + (scaled ? " scaled" : ""),
                          write_fits(f));
    }
  }
  return corpus;
}

/// Byte offset of the header card with `keyword`, or npos.
std::size_t card_offset(const std::vector<std::uint8_t>& bytes, const std::string& keyword) {
  for (std::size_t at = 0; at + 80 <= bytes.size(); at += 80) {
    const std::string key{trim(std::string_view(
        reinterpret_cast<const char*>(bytes.data() + at), 8))};
    if (key == keyword) return at;
    if (key == "END") break;
  }
  return std::string::npos;
}

void put_card(std::vector<std::uint8_t>& bytes, std::size_t at, const std::string& card) {
  std::memcpy(bytes.data() + at, card.data(), 80);
}

/// Inserts `card` in front of END (the header record has room to spare).
std::vector<std::uint8_t> with_card_before_end(std::vector<std::uint8_t> bytes,
                                               const std::string& card) {
  const std::size_t end = card_offset(bytes, "END");
  EXPECT_LT(end + 80, 2880u);
  std::memmove(bytes.data() + end + 80, bytes.data() + end, 80);
  put_card(bytes, end, card);
  return bytes;
}

/// Decodes `bytes` with the oracle, read_fits and decode_fits_pixels (into a
/// frame already holding another image) and checks they agree on ok(), the
/// error code and every pixel byte. Returns "" or a description.
std::string disagreement(const std::vector<std::uint8_t>& bytes) {
  const auto want = oracle_read_fits(bytes);
  const auto got = read_fits(bytes);
  Image frame(3, 5, 7.0f);
  const Image before = frame;
  const Status pixels = decode_fits_pixels(bytes, frame);
  if (want.ok() != got.ok() || want.ok() != pixels.ok()) {
    return std::string("ok() differs: oracle ") + (want.ok() ? "accepts" : "rejects") +
           ", read_fits " + (got.ok() ? "accepts" : "rejects: " + got.error().message) +
           ", decode_fits_pixels " + (pixels.ok() ? "accepts" : "rejects");
  }
  if (!want.ok()) {
    if (got.error().code != want.error().code || pixels.error().code != want.error().code) {
      return "error codes differ";
    }
    if (!same_pixel_bytes(frame, before)) return "failed decode wrote the frame";
    return "";
  }
  if (got->bitpix != want->bitpix) return "bitpix differs";
  if (!same_pixel_bytes(got->data, want->data)) return "read_fits pixels differ";
  if (!same_pixel_bytes(frame, want->data)) return "decode_fits_pixels pixels differ";
  return "";
}

void expect_agreement(const std::string& name, const std::vector<std::uint8_t>& bytes) {
  const std::string why = disagreement(bytes);
  EXPECT_TRUE(why.empty()) << name << ": " << why;
}

std::optional<std::uint64_t> real_bits(const std::optional<double>& v) {
  if (!v) return std::nullopt;
  return std::bit_cast<std::uint64_t>(*v);
}

TEST(FitsDifferential, WriterOutputDecodesLikeTheOracle) {
  for (const int size : {16, 64}) {
    for (const auto& [name, bytes] : fits_corpus(size)) {
      expect_agreement(name, bytes);
      const auto want = oracle_read_fits(bytes);
      const auto got = read_fits(bytes);
      ASSERT_TRUE(want.ok() && got.ok()) << name;
      // Every header accessor answers as the oracle's re-entered header does.
      ASSERT_EQ(got->header.cards().size(), want->header.cards().size()) << name;
      for (const FitsCard& card : want->header.cards()) {
        const std::string& k = card.keyword;
        EXPECT_TRUE(got->header.has(k)) << name << " " << k;
        EXPECT_EQ(got->header.get_logical(k), want->header.get_logical(k)) << name << " " << k;
        EXPECT_EQ(got->header.get_int(k), want->header.get_int(k)) << name << " " << k;
        EXPECT_EQ(real_bits(got->header.get_real(k)), real_bits(want->header.get_real(k)))
            << name << " " << k;
        EXPECT_EQ(got->header.get_string(k), want->header.get_string(k)) << name << " " << k;
      }
    }
  }
}

TEST(FitsDifferential, FloatPixelsKeepTheScaledDecodeBits) {
  // float(1.0 * v + 0.0): -0.0 reads back as +0.0, as it always has.
  const auto corpus = fits_corpus(16);
  const auto got = read_fits(corpus.front().second);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got->data.data()[0]), 0u);
  EXPECT_TRUE(std::isnan(got->data.data()[1]));
  EXPECT_EQ(got->data.data()[4], std::numeric_limits<float>::denorm_min());
}

TEST(FitsDifferential, OneByteFlipsInEveryValueField) {
  for (const auto& [name, base] : fits_corpus(16)) {
    for (std::size_t at = 0; at < card_offset(base, "END"); at += 80) {
      for (std::size_t col = 10; col < 80; ++col) {
        for (const int op : {0x01, 0x20, -1}) {
          std::vector<std::uint8_t> bytes = base;
          std::uint8_t& b = bytes[at + col];
          b = op < 0 ? static_cast<std::uint8_t>('\'') : static_cast<std::uint8_t>(b ^ op);
          expect_agreement(name + " card " + std::to_string(at / 80) + " col " +
                               std::to_string(col + 1) + " op " + std::to_string(op),
                           bytes);
        }
      }
    }
  }
}

TEST(FitsDifferential, TruncationAtEveryRecordBoundary) {
  for (const auto& [name, base] : fits_corpus(64)) {
    for (std::size_t records = 0; records * 2880 <= base.size(); ++records) {
      expect_agreement(name + " cut to " + std::to_string(records) + " records",
                       std::vector<std::uint8_t>(base.begin(), base.begin() + records * 2880));
    }
    // Not a whole number of cards.
    expect_agreement(name + " cut mid-card",
                     std::vector<std::uint8_t>(base.begin(), base.end() - 40));
  }
}

TEST(FitsDifferential, NumericExtremesInStructuralCards) {
  for (const auto& [name, base] : fits_corpus(16)) {
    for (const char* keyword : {"BITPIX", "NAXIS", "NAXIS1", "NAXIS2"}) {
      for (const char* value : {"0", "-1", "2147483648", "4294967297", "+16", "-0",
                                "99999999999999999999"}) {
        std::vector<std::uint8_t> bytes = base;
        put_card(bytes, card_offset(bytes, keyword), value_card(keyword, value));
        expect_agreement(name + " " + keyword + " = " + value, bytes);
      }
      // The oracle reads 6.4E1 as 64 and accepts it when the data unit is
      // large enough; it is now always rejected (see the next test).
      std::vector<std::uint8_t> bytes = base;
      put_card(bytes, card_offset(bytes, keyword), value_card(keyword, "6.4E1"));
      const auto got = read_fits(bytes);
      ASSERT_FALSE(got.ok()) << name << " " << keyword << " = 6.4E1";
      EXPECT_EQ(got.error().code, ErrorCode::kParseError);
      Image frame;
      EXPECT_FALSE(decode_fits_pixels(bytes, frame).ok()) << name << " " << keyword;
    }
  }
}

TEST(FitsDifferential, StructuralValuesSpelledAsRealsAreRejected) {
  // Deliberate tightening: the oracle re-enters 1.6E1 through "%.14G" as 16
  // and accepts it; structural values must now be plain decimal integers.
  const std::vector<std::uint8_t> base = fits_corpus(16).front().second;
  for (const auto& [keyword, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"NAXIS1", "1.6E1"}, {"NAXIS2", "16.0"}, {"NAXIS1", "0x10"},
           {"NAXIS", "2."}, {"BITPIX", "-3.2E1"}}) {
    std::vector<std::uint8_t> bytes = base;
    put_card(bytes, card_offset(bytes, keyword), value_card(keyword, value));
    EXPECT_TRUE(oracle_read_fits(bytes).ok()) << keyword << " = " << value;
    const auto got = read_fits(bytes);
    ASSERT_FALSE(got.ok()) << keyword << " = " << value;
    EXPECT_EQ(got.error().code, ErrorCode::kParseError);
  }
}

TEST(FitsDifferential, HeaderCardsKeepTheFilesSpelling) {
  // Deliberate changes: a card's value is the file's text, not the old
  // reader's strtod -> "%.14G" re-entry of it.
  std::vector<std::uint8_t> bytes = raw_fits("-32", "4", "2", 1);
  for (const auto& [keyword, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"NEGZERO", "-0"}, {"PADDED", "007"}, {"REALINT", "64.0"}, {"BARE", "bar"}}) {
    bytes = with_card_before_end(bytes, value_card(keyword, value));
  }
  const auto want = oracle_read_fits(bytes);
  const auto got = read_fits(bytes);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(want->header.get_string("NEGZERO"), "0");
  EXPECT_EQ(got->header.get_string("NEGZERO"), "-0");
  EXPECT_TRUE(std::signbit(got->header.get_real("NEGZERO").value()));
  EXPECT_EQ(want->header.get_string("PADDED"), "7");
  EXPECT_EQ(got->header.get_string("PADDED"), "007");
  EXPECT_EQ(got->header.get_int("PADDED"), 7);
  EXPECT_EQ(want->header.get_int("REALINT"), 64);
  EXPECT_FALSE(got->header.get_int("REALINT").has_value());
  EXPECT_EQ(got->header.get_real("REALINT"), 64.0);
  // An unquoted word was re-entered as a string card; now it stays bare.
  EXPECT_TRUE(want->header.cards().back().is_string);
  EXPECT_FALSE(got->header.cards().back().is_string);
  EXPECT_EQ(got->header.get_string("BARE"), want->header.get_string("BARE"));
  EXPECT_EQ(got->header.get_int("BARE"), want->header.get_int("BARE"));
}

TEST(FitsDifferential, UnreadableScaleFallsBackToTheDefault) {
  // Deliberate change: strtod read hex and clamped overflow to infinity;
  // from_chars rejects both, and an unreadable BSCALE means 1, as it
  // always has for text strtod could not read.
  FitsFile f;
  f.data = Image(4, 4, 10.0f);
  f.bitpix = 16;
  f.header.set_real("BSCALE", 2.0);
  const std::vector<std::uint8_t> base = write_fits(f);
  for (const char* value : {"0x2", "1E999"}) {
    std::vector<std::uint8_t> bytes = base;
    put_card(bytes, card_offset(bytes, "BSCALE"), value_card("BSCALE", value));
    const auto want = oracle_read_fits(bytes);
    const auto got = read_fits(bytes);
    ASSERT_TRUE(want.ok() && got.ok()) << value;
    EXPECT_NE(want->data.at(0, 0), 10.0f) << value;
    EXPECT_EQ(got->data.at(0, 0), 10.0f) << value;
  }
}

TEST(FitsDifferential, DuplicateStructuralCardsLastOneWins) {
  for (const auto& [name, base] : fits_corpus(16)) {
    for (const auto& [keyword, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"SIMPLE", "T"}, {"SIMPLE", "F"}, {"BITPIX", "16"}, {"BITPIX", "8"},
             {"BITPIX", "junk"}, {"NAXIS", "2"}, {"NAXIS", "3"}, {"NAXIS1", "8"},
             {"NAXIS1", "17"}, {"NAXIS2", "4"}, {"NAXIS2", "'16'"}, {"BSCALE", "2.5"},
             {"BSCALE", "junk"}, {"BZERO", "-3"}, {"BZERO", "1E-300"}}) {
      expect_agreement(name + " then " + keyword + " = " + value,
                       with_card_before_end(base, value_card(keyword, value)));
    }
  }
}

TEST(FitsDifferential, UnterminatedStringAndShiftedKeywords) {
  for (const auto& [name, base] : fits_corpus(16)) {
    std::vector<std::uint8_t> bytes = base;
    put_card(bytes, card_offset(bytes, "OBJECT"), value_card("OBJECT", "'no closing quote"));
    expect_agreement(name + " unterminated OBJECT", bytes);
    // Each keyword shifted one column right: a leading space.
    for (std::size_t at = 0; at <= card_offset(base, "END"); at += 80) {
      std::vector<std::uint8_t> shifted = base;
      std::memmove(shifted.data() + at + 1, shifted.data() + at, 7);
      shifted[at] = ' ';
      expect_agreement(name + " card " + std::to_string(at / 80) + " leading space",
                       shifted);
    }
  }
}

TEST(FitsDifferential, PixelDecodeReusesTheFrame) {
  const auto corpus = fits_corpus(64);
  Image frame;
  ASSERT_TRUE(decode_fits_pixels(corpus.front().second, frame).ok());
  const float* buffer = frame.data();
  for (const auto& [name, bytes] : corpus) {
    ASSERT_TRUE(decode_fits_pixels(bytes, frame).ok()) << name;
    EXPECT_EQ(frame.data(), buffer) << name << ": same-sized frame reallocated";
  }
}

TEST(Fits, FileRoundTrip) {
  FitsFile f;
  f.data = make_test_image(16, 16);
  const std::string path = ::testing::TempDir() + "/nvo_test.fits";
  ASSERT_TRUE(write_fits_file(path, f).ok());
  auto parsed = read_fits_file(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FLOAT_EQ(parsed->data.at(5, 5), f.data.at(5, 5));
}

TEST(FitsHeader, TypedAccessors) {
  FitsHeader h;
  h.set_logical("SIMPLE", true);
  h.set_int("COUNT", -12);
  h.set_real("SCALE", 0.25);
  h.set_string("NAME", "abc");
  EXPECT_EQ(h.get_logical("SIMPLE").value(), true);
  EXPECT_EQ(h.get_int("COUNT").value(), -12);
  EXPECT_DOUBLE_EQ(h.get_real("SCALE").value(), 0.25);
  EXPECT_EQ(h.get_string("NAME").value(), "abc");
  EXPECT_FALSE(h.get_int("MISSING").has_value());
  EXPECT_TRUE(h.has("SCALE"));
  // Upsert keeps one card.
  h.set_int("COUNT", 7);
  EXPECT_EQ(h.get_int("COUNT").value(), 7);
}

// ---------------------------------------------------------------------------
// WCS
// ---------------------------------------------------------------------------

TEST(Wcs, CenterPixelMapsToReference) {
  const sky::Equatorial center{137.3, 10.97};
  const Wcs wcs = Wcs::centered(center, 101, 101, 1.0 / 3600.0);
  const auto p = wcs.sky_to_pixel(center);
  EXPECT_NEAR(p.x, 50.0, 1e-9);
  EXPECT_NEAR(p.y, 50.0, 1e-9);
}

TEST(Wcs, RoundTripPixelSkyPixel) {
  const Wcs wcs = Wcs::centered({200.0, -5.0}, 512, 512, 2.0 / 3600.0);
  for (double x : {0.0, 100.5, 511.0}) {
    for (double y : {0.0, 255.0, 511.0}) {
      const sky::Equatorial s = wcs.pixel_to_sky(x, y);
      const auto p = wcs.sky_to_pixel(s);
      EXPECT_NEAR(p.x, x, 1e-6);
      EXPECT_NEAR(p.y, y, 1e-6);
    }
  }
}

TEST(Wcs, RaGrowsLeftward) {
  const Wcs wcs = Wcs::centered({180.0, 0.0}, 100, 100, 1.0 / 3600.0);
  // Higher RA should land at smaller x (sky convention, CDELT1 < 0).
  const auto p = wcs.sky_to_pixel({180.01, 0.0});
  EXPECT_LT(p.x, 49.5);
}

TEST(Wcs, HeaderRoundTrip) {
  const Wcs wcs = Wcs::centered({33.0, 44.0}, 64, 64, 1.5 / 3600.0);
  FitsHeader h;
  wcs.to_header(h);
  const auto parsed = Wcs::from_header(h);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->reference().ra_deg, 33.0, 1e-9);
  EXPECT_NEAR(parsed->pixel_scale_arcsec(), 1.5, 1e-9);
  const auto p = parsed->sky_to_pixel({33.0, 44.0});
  EXPECT_NEAR(p.x, 31.5, 1e-6);
}

TEST(Wcs, FromHeaderMissingKeywords) {
  FitsHeader h;
  h.set_real("CRVAL1", 1.0);
  EXPECT_FALSE(Wcs::from_header(h).has_value());
}

// ---------------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------------

TEST(Render, PpmHeader) {
  RgbImage img(10, 6);
  const auto ppm = img.to_ppm();
  const std::string header(ppm.begin(), ppm.begin() + 12);
  EXPECT_EQ(header.substr(0, 3), "P6\n");
  EXPECT_NE(header.find("10 6"), std::string::npos);
}

TEST(Render, PpmPixelCount) {
  RgbImage img(7, 5);
  const auto ppm = img.to_ppm();
  const std::string expected_header = "P6\n7 5\n255\n";
  EXPECT_EQ(ppm.size(), expected_header.size() + 7u * 5u * 3u);
}

TEST(Render, DotClipping) {
  RgbImage img(10, 10);
  img.draw_dot(0, 0, 3, {255, 0, 0});  // partially off-frame: must not crash
  EXPECT_EQ(img.at(0, 0).r, 255);
  EXPECT_EQ(img.at(5, 5).r, 0);
}

TEST(Render, AsinhStretchBounds) {
  EXPECT_DOUBLE_EQ(asinh_stretch(0.0, 1.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(asinh_stretch(100.0, 1.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(asinh_stretch(1e9, 1.0, 100.0), 1.0);  // clamped
  const double mid = asinh_stretch(10.0, 1.0, 100.0);
  EXPECT_GT(mid, 0.3);  // compressive: 10% of flux is >30% of display range
  EXPECT_LT(mid, 1.0);
}

TEST(Render, GrayscaleBrighterPixelBrighter) {
  Image img(8, 8, 1.0f);
  img.at(4, 4) = 500.0f;
  const RgbImage rgb = render_grayscale(img);
  EXPECT_GT(rgb.at(4, 4).r, rgb.at(0, 0).r);
}

TEST(Render, CompositeChannelsIndependent) {
  Image red(8, 8, 0.0f), blue(8, 8, 0.0f);
  red.at(2, 2) = 100.0f;
  blue.at(5, 5) = 100.0f;
  const RgbImage rgb = render_composite(red, blue);
  EXPECT_GT(rgb.at(2, 2).r, rgb.at(2, 2).b);
  EXPECT_GT(rgb.at(5, 5).b, rgb.at(5, 5).r);
}

TEST(Render, AsymmetryColormapEndpoints) {
  const Rgb lo = asymmetry_colormap(0.0, 0.0, 1.0);   // orange (symmetric)
  const Rgb hi = asymmetry_colormap(1.0, 0.0, 1.0);   // blue (asymmetric)
  EXPECT_GT(lo.r, lo.b);
  EXPECT_GT(hi.b, hi.r);
  // Out-of-range values clamp.
  const Rgb below = asymmetry_colormap(-5.0, 0.0, 1.0);
  EXPECT_EQ(below.r, lo.r);
}

}  // namespace
}  // namespace nvo::image
