#include "core/morphology.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"
#include "core/lanes.hpp"
#include "core/photometry.hpp"
#include "core/segmentation.hpp"

namespace nvo::core {

namespace {

constexpr double kPi = 3.14159265358979323846;

using lanes::f32x4;
using lanes::f64x4;

/// Fused validity scan: one pass over the frame detects both corruption
/// modes the kernel rejects — non-finite pixels, and the saturated-band
/// defect of bad archive cutouts (any full row pinned at a single extreme
/// value). Non-finite pixels take precedence, matching the original
/// two-scan ordering. Returns nullptr when the frame is clean.
///
/// Both row scans are branchless flag reductions (v * 0 is ±0 exactly when
/// v is finite and NaN otherwise), so the common all-clean case is a
/// vectorized sweep with no data-dependent branches.
const char* validation_failure(const image::Image& img) {
  const int w = img.width();
  bool saturated = false;
  bool nonfinite = false;
  for (int y = 0; y < img.height(); ++y) {
    const float* row = img.data() + static_cast<std::size_t>(y) * w;
    int bad = 0;
    for (int x = 0; x < w; ++x) {
      bad |= (row[x] * 0.0f == 0.0f) ? 0 : 1;
    }
    nonfinite = nonfinite || bad != 0;
    const float first = row[0];
    if (!saturated && w >= 2 && first >= 60000.0f) {
      int uniform = 1;
      for (int x = 0; x < w; ++x) {
        uniform &= (row[x] == first) ? 1 : 0;
      }
      saturated = uniform != 0;
    }
  }
  if (nonfinite) return "non-finite pixels";
  return saturated ? "saturated defect band" : nullptr;
}

/// Error-free exactness probe: true when a + b incurs no rounding (Knuth
/// two-sum residual is zero). Used per row — not per pixel — to certify
/// that the mirrored abscissa 2cx - x steps by exactly 1.0 across the row.
inline bool addition_is_exact(double a, double b) {
  const double s = a + b;
  const double bp = s - a;
  const double err = (a - (s - bp)) + (b - bp);
  return err == 0.0;
}

MorphologyParams invalid(const std::string& reason) {
  MorphologyParams p;
  p.valid = false;
  p.failure_reason = reason;
  return p;
}

}  // namespace

double asymmetry_statistic(const image::Image& img, double cx, double cy,
                           double radius) {
  // Swept evaluation of the same statistic. Per destination row: the
  // in-circle pixels form one contiguous x-interval (located by sqrt, then
  // pinned down with the reference's exact squared-distance predicate, so
  // the pixel set is identical); within it, the mirrored abscissa
  // sx = 2cx - x steps by exactly -1.0 per pixel — certified per row by an
  // error-free two-sum probe at both interval ends — so the bilinear
  // x-weights are constants and the four source taps slide one element per
  // step. The middle segment where all four taps are in bounds runs as a
  // branchless index-reversed sweep, four columns per step in vector
  // registers (one accumulator lane per column mod 4); the few head/tail
  // pixels (and whole rows that fail the certification, e.g. a
  // center pathologically close to the frame edge) fall back to the
  // reference per-pixel path.
  double num = 0.0;
  double den = 0.0;
  const int width = img.width();
  const int height = img.height();
  const int x0 = std::max(0, static_cast<int>(cx - radius));
  const int x1 = std::min(width - 1, static_cast<int>(cx + radius));
  const int y0 = std::max(0, static_cast<int>(cy - radius));
  const int y1 = std::min(height - 1, static_cast<int>(cy + radius));
  const double r2 = radius * radius;
  const double tx = 2.0 * cx;
  for (int y = y0; y <= y1; ++y) {
    const double sy = 2.0 * cy - y;
    const int iy0 = static_cast<int>(std::floor(sy));
    const double fy = sy - iy0;
    const bool row_interior = iy0 >= 0 && iy0 + 1 < height;
    const float* row0 = row_interior
                            ? img.data() + static_cast<std::size_t>(iy0) * width
                            : nullptr;
    const float* row1 = row_interior ? row0 + width : nullptr;
    const double dy = y - cy;
    const double dy2 = dy * dy;

    // In-circle interval: bracket by sqrt with one pixel of slack, then
    // tighten with the exact predicate the reference applies per pixel.
    const double half = std::sqrt(std::max(r2 - dy2, 0.0));
    int xlo = std::max(x0, static_cast<int>(std::ceil(cx - half)) - 1);
    int xhi = std::min(x1, static_cast<int>(std::floor(cx + half)) + 1);
    while (xlo <= xhi) {
      const double dx = xlo - cx;
      if (!(dx * dx + dy2 > r2)) break;
      ++xlo;
    }
    while (xhi >= xlo) {
      const double dx = xhi - cx;
      if (!(dx * dx + dy2 > r2)) break;
      --xhi;
    }
    if (xlo > xhi) continue;

    const auto slow_pixel = [&](int x) {
      const float v = img.at(x, y);
      const double sx = 2.0 * cx - x;
      float rotated;
      const int ix0 = static_cast<int>(std::floor(sx));
      if (row_interior && ix0 >= 0 && ix0 + 1 < width) {
        const double fx = sx - ix0;
        const double v00 = row0[ix0];
        const double v10 = row0[ix0 + 1];
        const double v01 = row1[ix0];
        const double v11 = row1[ix0 + 1];
        const double top = v01 * (1.0 - fx) + v11 * fx;
        const double bot = v00 * (1.0 - fx) + v10 * fx;
        rotated = static_cast<float>(bot * (1.0 - fy) + top * fy);
      } else {
        rotated = img.sample_bilinear(sx, sy);
      }
      num += std::fabs(v - rotated);
      den += std::fabs(v);
    };

    // Middle segment: rows certified exact-stepping, with every tap pair
    // (ix0, ix0+1) inside [0, width).
    int xa = xhi + 1;
    int xb = xhi;
    int ix0_lo = 0;
    double sx_lo = 0.0;
    if (row_interior && addition_is_exact(tx, -static_cast<double>(xlo)) &&
        addition_is_exact(tx, -static_cast<double>(xhi))) {
      sx_lo = tx - xlo;
      ix0_lo = static_cast<int>(std::floor(sx_lo));
      // ix0(x) = ix0_lo - (x - xlo); bounds 0 <= ix0(x) <= width - 2.
      xa = std::max(xlo, xlo + ix0_lo - (width - 2));
      xb = std::min(xhi, xlo + ix0_lo);
      if (xa > xb) {
        // No in-bounds middle at all: hand the whole row to the slow path
        // (head spans [xlo, xhi], tail stays empty).
        xa = xhi + 1;
        xb = xhi;
      }
    }

    for (int x = xlo; x < xa && x <= xhi; ++x) slow_pixel(x);
    if (xa <= xb) {
      // Four lanes in vector registers (core/lanes.hpp): lane j sums the
      // columns x with x mod 4 == j. In a block of four columns the mirror
      // taps run backwards, so each tap vector is a reversed load.
      const double fx = sx_lo - ix0_lo;
      const double wx0 = 1.0 - fx;
      const double wy0 = 1.0 - fy;
      const float* vrow = img.data() + static_cast<std::size_t>(y) * width;
      f64x4 lane_num = {};
      f64x4 lane_den = {};
      int ix = ix0_lo - (xa - xlo);
      const auto pixel = [&](int x) {
        const double v00 = row0[ix];
        const double v10 = row0[ix + 1];
        const double v01 = row1[ix];
        const double v11 = row1[ix + 1];
        const double top = v01 * wx0 + v11 * fx;
        const double bot = v00 * wx0 + v10 * fx;
        const float rotated = static_cast<float>(bot * wy0 + top * fy);
        const float v = vrow[x];
        lanes::add_to_lane(lane_num, x, std::fabs(v - rotated));
        lanes::add_to_lane(lane_den, x, std::fabs(v));
      };
      int x = xa;
      for (; x <= xb && (x & 3) != 0; ++x, --ix) pixel(x);
      for (; x + 3 <= xb; x += 4, ix -= 4) {
        // Columns x..x+3 read taps ix..ix-3 (and ix+1..ix-2 to their right).
        const f64x4 v00 = __builtin_convertvector(lanes::reverse(lanes::load4(row0 + ix - 3)), f64x4);
        const f64x4 v10 = __builtin_convertvector(lanes::reverse(lanes::load4(row0 + ix - 2)), f64x4);
        const f64x4 v01 = __builtin_convertvector(lanes::reverse(lanes::load4(row1 + ix - 3)), f64x4);
        const f64x4 v11 = __builtin_convertvector(lanes::reverse(lanes::load4(row1 + ix - 2)), f64x4);
        const f64x4 top = v01 * wx0 + v11 * fx;
        const f64x4 bot = v00 * wx0 + v10 * fx;
        const f32x4 rotated = __builtin_convertvector(bot * wy0 + top * fy, f32x4);
        const f32x4 v = lanes::load4(vrow + x);
        lane_num += __builtin_convertvector(lanes::abs(v - rotated), f64x4);
        lane_den += __builtin_convertvector(lanes::abs(v), f64x4);
      }
      for (; x <= xb; ++x, --ix) pixel(x);
      num += lanes::fold(lane_num);
      den += lanes::fold(lane_den);
    }
    for (int x = xb + 1; x <= xhi; ++x) slow_pixel(x);
  }
  return den > 0.0 ? num / (2.0 * den) : 0.0;
}

MorphologyParams measure_morphology(const image::Image& cutout,
                                    const MorphologyOptions& options) {
  thread_local MorphologyWorkspace workspace;
  return measure_morphology(cutout, options, workspace);
}

MorphologyParams measure_morphology(const image::Image& cutout,
                                    const MorphologyOptions& options,
                                    MorphologyWorkspace& workspace) {
  if (cutout.empty() || cutout.width() < 16 || cutout.height() < 16) {
    return invalid("frame too small");
  }
  if (const char* reason = validation_failure(cutout)) return invalid(reason);

  MorphologyParams p;
  const BackgroundEstimate bg =
      estimate_background(cutout, options.background_border, 5, 3.0,
                          workspace.background_samples);
  p.background_level = bg.level;
  p.background_sigma = bg.sigma;
  // Background-subtract, then mask companion sources: crowded cluster-core
  // cutouts contain neighbors whose light would corrupt every index. All
  // stages run in workspace buffers — the scratch frame, the segmentation
  // label maps, and the background sample buffer — so a batch of same-sized
  // cutouts measures with zero steady-state heap allocation.
  image::Image& img = workspace.scratch;
  subtract_background_into(cutout, bg, img);
  mask_companions_inplace(img, bg.sigma, workspace.segmentation);

  const double frame_limit = std::min(cutout.width(), cutout.height()) / 2.0 - 1.0;
  const Centroid centroid = find_centroid(img, frame_limit);
  p.centroid_x = centroid.x;
  p.centroid_y = centroid.y;

  // Every radial query below — the Petrosian sweep, the total-flux
  // aperture, and the r20/r80 bisections — is answered from one precomputed
  // curve of growth instead of a fresh aperture scan per query.
  CurveOfGrowth& cog = workspace.cog;
  cog.build(img, centroid.x, centroid.y);

  const auto r_p = cog.petrosian_radius(options.petrosian_eta, frame_limit);
  if (!r_p) return invalid("no Petrosian radius (source too faint or absent)");
  p.petrosian_r = *r_p;

  const double aperture =
      std::min(options.aperture_petrosian_factor * *r_p, frame_limit);
  p.total_flux = cog.aperture_flux(aperture);
  if (p.total_flux <= 0.0) return invalid("non-positive aperture flux");

  const double n_pix = kPi * aperture * aperture;
  p.snr = bg.sigma > 0.0 ? p.total_flux / (bg.sigma * std::sqrt(n_pix)) : 1e9;
  if (p.snr < options.min_snr) {
    return invalid(format("S/N %.2f below threshold %.2f", p.snr, options.min_snr));
  }

  // --- average surface brightness, mag/arcsec^2 ---
  const double area_arcsec2 =
      n_pix * options.pixel_scale_arcsec * options.pixel_scale_arcsec;
  p.surface_brightness = options.zero_point - 2.5 * std::log10(p.total_flux) +
                         2.5 * std::log10(area_arcsec2);

  // --- concentration ---
  const auto r20 = cog.radius_enclosing(0.2, p.total_flux, aperture);
  const auto r80 = cog.radius_enclosing(0.8, p.total_flux, aperture);
  if (!r20 || !r80 || *r20 <= 0.0) return invalid("curve of growth undefined");
  p.r20 = *r20;
  p.r80 = *r80;
  p.concentration = 5.0 * std::log10(*r80 / *r20);

  // --- asymmetry: minimize over sub-pixel recentering (coarse 0.5-pixel
  // 3x3 grid, then 0.25-pixel refinement about the best), then subtract the
  // analytic noise floor ---
  double best = 1e300;
  double best_x = centroid.x;
  double best_y = centroid.y;
  for (double step : {0.5, 0.25}) {
    const double base_x = best_x;
    const double base_y = best_y;
    // The nine candidate centers are independent; with an executor they are
    // evaluated concurrently and the minimum is then taken in the same
    // row-major grid order (strict <) as the serial loop, so the selected
    // center -- and therefore the refinement base -- is identical. The
    // refinement grid's center is the coarse winner itself, already
    // evaluated with the same arguments: it reuses `best`.
    double a[9];
    const auto evaluate = [&](std::size_t i) {
      const int dx = static_cast<int>(i % 3) - 1;
      const int dy = static_cast<int>(i / 3) - 1;
      a[i] = (step == 0.25 && i == 4)
                 ? best
                 : asymmetry_statistic(img, base_x + dx * step, base_y + dy * step,
                                       aperture);
    };
    if (options.tile_executor != nullptr) {
      (*options.tile_executor)(9, evaluate);
    } else {
      for (std::size_t i = 0; i < 9; ++i) evaluate(i);
    }
    for (std::size_t i = 0; i < 9; ++i) {
      if (a[i] < best) {
        best = a[i];
        best_x = base_x + (static_cast<int>(i % 3) - 1) * step;
        best_y = base_y + (static_cast<int>(i / 3) - 1) * step;
      }
    }
  }
  // The pixel-difference of two independent N(0, sigma) draws has mean
  // absolute value 2 sigma / sqrt(pi); summed over the aperture and divided
  // by 2 * flux it is the expected asymmetry of pure noise.
  const double noise_floor =
      p.total_flux > 0.0
          ? n_pix * (2.0 * bg.sigma / std::sqrt(kPi)) / (2.0 * p.total_flux)
          : 0.0;
  p.asymmetry = std::max(0.0, best - noise_floor);

  p.valid = true;
  return p;
}

}  // namespace nvo::core
