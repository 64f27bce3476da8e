// Minimal FITS (Flexible Image Transport System) reader/writer, per the
// formats the paper relies on ("we use this standard in all our NVO
// demonstrations to transport images", citing Hanisch 2001b). Supports the
// single-HDU images the prototype moved around: 2880-byte logical records,
// 80-character header cards, BITPIX 8 / 16 / 32 / -32, big-endian data with
// BSCALE/BZERO. This is the wire format of every simulated archive: images
// travel through the HttpFabric and GridFTP model as serialized FITS bytes,
// so size accounting (the paper's "30MB of data") is faithful.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "image/image.hpp"

namespace nvo::image {

/// One header keyword record. FITS values are typed; we preserve enough of
/// the type system (logical / integer / real / string) to round-trip WCS.
struct FitsCard {
  std::string keyword;        ///< up to 8 chars, upper case
  std::string value;          ///< formatted value field (already FITS-formatted)
  std::string comment;        ///< optional comment
  bool is_string = false;     ///< value should be quoted on output
};

/// An in-memory FITS header: ordered cards plus index for lookup.
class FitsHeader {
 public:
  void set_logical(const std::string& keyword, bool value, const std::string& comment = "");
  void set_int(const std::string& keyword, long long value, const std::string& comment = "");
  void set_real(const std::string& keyword, double value, const std::string& comment = "");
  void set_string(const std::string& keyword, const std::string& value,
                  const std::string& comment = "");

  std::optional<bool> get_logical(const std::string& keyword) const;
  std::optional<long long> get_int(const std::string& keyword) const;
  std::optional<double> get_real(const std::string& keyword) const;
  std::optional<std::string> get_string(const std::string& keyword) const;
  bool has(const std::string& keyword) const;

  /// Stores `card` as given, replacing any card with the same keyword in
  /// place (the last card written wins, at the first one's position).
  void set_card(FitsCard card);

  const std::vector<FitsCard>& cards() const { return cards_; }

 private:
  const FitsCard* find(const std::string& keyword) const;

  std::vector<FitsCard> cards_;
};

/// A FITS file in memory: header + image. The mandatory structural keywords
/// (SIMPLE/BITPIX/NAXIS*) are generated at serialization time from the image
/// and the requested bitpix; everything else comes from `header`.
struct FitsFile {
  FitsHeader header;
  Image data;
  int bitpix = -32;  ///< 8, 16, 32, or -32 (IEEE float)
};

/// Serializes to FITS bytes (header block(s) + big-endian data + padding).
std::vector<std::uint8_t> write_fits(const FitsFile& file);

/// Parses FITS bytes produced by write_fits (or any conforming single-HDU
/// 2-D image). Integer data are scaled by BSCALE/BZERO into the float image.
/// Structural values (BITPIX, NAXIS, NAXISn) must be plain decimal integers;
/// every other card is kept as the trimmed text of its value field, so the
/// typed getters parse what the file says.
Expected<FitsFile> read_fits(const std::vector<std::uint8_t>& bytes);

/// The data unit of `bytes` only: the same checks and the same pixels as
/// read_fits, written into `frame` (resized, capacity reused) without
/// building a header. A job that decodes many same-sized cutouts into one
/// frame allocates nothing after the first. On failure `frame` is untouched.
Status decode_fits_pixels(const std::vector<std::uint8_t>& bytes, Image& frame);

/// File-system convenience wrappers.
Status write_fits_file(const std::string& path, const FitsFile& file);
Expected<FitsFile> read_fits_file(const std::string& path);

/// Size in bytes write_fits would produce, without serializing; used by the
/// transfer model for accounting.
std::size_t fits_serialized_size(const FitsFile& file);

}  // namespace nvo::image
