// The paper's three morphology parameters (§2, following Conselice 2003):
//
//  * Average surface brightness — "a measure of the total amount of
//    detected light (per area) from the galaxy". Reported in
//    mag/arcsec^2 relative to the supplied zero point.
//  * Concentration index — "differentiates between galaxies with a uniform
//    distribution of brightness and those dominated by a bright core".
//    C = 5 log10(r80 / r20) over the curve of growth.
//  * Asymmetry index — "differentiates between spiral galaxies (most
//    asymmetric) and elliptical galaxies (most symmetric)".
//    A = min over recentering of sum|I - I_180| / (2 sum|I|), noise
//    corrected with an off-source patch.
//
// Computation carries the per-galaxy validity flag of §4.3.1 item 4: bad
// cutouts yield valid=false rather than failing the whole run.
#pragma once

#include <optional>
#include <string>

#include <vector>

#include "core/background.hpp"
#include "core/photometry.hpp"
#include "core/segmentation.hpp"
#include "image/image.hpp"

namespace nvo::core {

/// Measurement controls.
struct MorphologyOptions {
  double pixel_scale_arcsec = 1.0;  ///< the VDL pixScale (converted to arcsec)
  double zero_point = 0.0;          ///< photometric zero point (VDL zeroPoint)
  double petrosian_eta = 0.2;
  double aperture_petrosian_factor = 1.5;  ///< measurement aperture = k * r_p
  double min_snr = 3.0;  ///< minimum total S/N for a valid measurement
  int background_border = 6;
  /// Optional intra-kernel executor: when set, the 3x3 asymmetry
  /// recentering grid is evaluated concurrently through it. Results are
  /// identical to the serial path (the minimum is taken in grid order);
  /// callers decide the size threshold at which fan-out pays for itself.
  const ParallelFor* tile_executor = nullptr;
};

/// One galaxy's measured parameters.
struct MorphologyParams {
  bool valid = false;
  std::string failure_reason;  ///< set when !valid

  double surface_brightness = 0.0;  ///< mag/arcsec^2 (lower = brighter)
  double concentration = 0.0;       ///< C = 5 log10(r80/r20)
  double asymmetry = 0.0;           ///< A in [0, ~1]

  // Supporting measurements, useful for diagnostics and the analysis layer.
  double total_flux = 0.0;      ///< counts inside the measurement aperture
  double petrosian_r = 0.0;     ///< pixels
  double r20 = 0.0;             ///< pixels
  double r80 = 0.0;             ///< pixels
  double centroid_x = 0.0;
  double centroid_y = 0.0;
  double background_level = 0.0;
  double background_sigma = 0.0;
  double snr = 0.0;
};

/// Reusable per-thread scratch state for measure_morphology: the
/// background-subtracted/companion-masked working frame and the radial
/// curve of growth. Holding one of these across a batch of equally-sized
/// cutouts makes the kernel's image-processing stages allocation-free in
/// the steady state.
struct MorphologyWorkspace {
  image::Image scratch;
  CurveOfGrowth cog;
  SegmentationScratch segmentation;
  std::vector<float> background_samples;
};

/// Full measurement on a cutout (raw counts, background included). Never
/// throws; all failure modes produce valid=false with a reason. The
/// workspace-free overload uses a thread-local workspace, so batch callers
/// on a persistent thread pool still get steady-state buffer reuse.
MorphologyParams measure_morphology(const image::Image& cutout,
                                    const MorphologyOptions& options = {});
MorphologyParams measure_morphology(const image::Image& cutout,
                                    const MorphologyOptions& options,
                                    MorphologyWorkspace& workspace);

/// The asymmetry statistic about a fixed center on background-subtracted
/// data (exposed for tests): sum|I - R(I)| / (2 sum|I|) within `radius`.
/// The production implementation sweeps each row's in-circle pixel interval
/// against an index-reversed view of the mirror row with constant bilinear
/// weights; its four-lane accumulators reorder the (exactly computed)
/// per-pixel terms, so it matches a direct per-pixel evaluation to
/// summation-order precision (~1e-12 relative) rather than bit-for-bit.
double asymmetry_statistic(const image::Image& background_subtracted, double cx,
                           double cy, double radius);

}  // namespace nvo::core
