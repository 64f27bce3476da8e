// Source segmentation and companion masking. Cluster cores are crowded:
// cutouts of central galaxies contain neighbors whose light corrupts the
// centroid, concentration, and (especially) asymmetry. Following standard
// CAS practice (Conselice 2003 uses SExtractor segmentation maps), pixels
// belonging to detected sources other than the central one are replaced
// with background before measurement.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"

namespace nvo::core {

/// One horizontal run of member pixels: columns [x0, x1) of row y.
struct PixelRun {
  std::int32_t y = 0;
  std::int32_t x0 = 0;
  std::int32_t x1 = 0;
};

/// Reusable buffers for mask_companions_inplace: one row's membership
/// bytes, the detection and deblend runs with their component labels,
/// the central-membership and mask planes, and the deblend peak tables. All
/// are sized by the frame, not its content (a row holds at most ceil(w/2)
/// runs, so a frame at most h * ceil(w/2)), so scratch that has masked one
/// frame never allocates for another of the same size.
struct SegmentationScratch {
  std::vector<std::uint8_t> row_bytes;   ///< one row's membership, padded to 64 px words
  std::vector<PixelRun> runs;            ///< detection-threshold runs, raster order
  std::vector<std::uint32_t> labels;     ///< component of each run, 1..count
  std::vector<PixelRun> core_runs;       ///< central runs above the deblend threshold
  std::vector<std::uint32_t> core_labels;
  std::vector<std::uint8_t> central;     ///< 1 on central-component pixels
  std::vector<std::uint8_t> mask;        ///< masked pixels, one zero row above and below
  std::vector<std::uint8_t> grown;       ///< next dilation pass, same layout as mask
  std::vector<double> peak_x;
  std::vector<double> peak_y;
  std::vector<float> peak_v;
};

/// Zeroes, in `background_subtracted`, every pixel of every non-central
/// source (dilated by `dilate_pixels`). Sources are the 4-connected
/// components of the pixels at or above `threshold_sigma` background sigmas;
/// the central one holds the brightest such pixel of the centered box
/// covering the middle 30% of each axis. If there is none, the frame is left
/// unchanged.
///
/// Blends are deblended SExtractor-style with a second, higher threshold
/// (`deblend_sigma`): when the central component contains several
/// high-threshold cores, each of its pixels is assigned to the nearest core
/// peak and pixels belonging to non-central cores are masked too.
///
/// Components are labeled on row runs with union-find and numbered in
/// raster order of their first pixel, so every tie (equal brightest pixels,
/// equidistant core peaks) resolves toward the component, core or pixel
/// that comes first in raster order.
void mask_companions_inplace(image::Image& background_subtracted,
                             double background_sigma,
                             SegmentationScratch& scratch,
                             double threshold_sigma = 2.0, int dilate_pixels = 2,
                             double deblend_sigma = 10.0);

}  // namespace nvo::core
