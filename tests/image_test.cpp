// Tests for the raster type, FITS serialization, WCS, and rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "image/fits.hpp"
#include "image/image.hpp"
#include "image/render.hpp"
#include "image/wcs.hpp"

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

// A minimal primary header: SIMPLE, BITPIX, NAXIS=2, the given axes, END,
// padded to one record, followed by `data_records` zero records.
std::vector<std::uint8_t> raw_fits(const std::string& bitpix, const std::string& naxis1,
                                   const std::string& naxis2, std::size_t data_records) {
  std::string header;
  const auto card = [&](const std::string& key, const std::string& value) {
    std::string c = key;
    c.resize(8, ' ');
    c += "= ";
    c += std::string(value.size() < 20 ? 20 - value.size() : 0, ' ') + value;
    c.resize(80, ' ');
    header += c;
  };
  card("SIMPLE", "T");
  card("BITPIX", bitpix);
  card("NAXIS", "2");
  card("NAXIS1", naxis1);
  card("NAXIS2", naxis2);
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
