#include "core/morphology.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>

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

/// The asymmetry statistic's row sweep (see asymmetry_statistic). After
/// each row, `stop(num, den)` may end the sweep, which then returns nullopt.
template <typename Stop>
std::optional<double> asymmetry_rows(const image::Image& img, double cx, double cy,
                                     double radius, const Stop& stop) {
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
    if (stop(num, den)) return std::nullopt;
  }
  return den > 0.0 ? num / (2.0 * den) : 0.0;
}

/// Sum of |v| over the in-frame pixels within `radius` of (cx, cy), and
/// their count.
std::pair<double, std::size_t> abs_sum_in_disc(const image::Image& img, double cx,
                                               double cy, double radius) {
  const double r2 = radius * radius;
  const int width = img.width();
  const int y0 = std::max(0, static_cast<int>(std::ceil(cy - radius)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::floor(cy + radius)));
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t count = 0;
  for (int y = y0; y <= y1; ++y) {
    const double dy = y - cy;
    const double dy2 = dy * dy;
    if (dy2 > r2) continue;
    const double half = std::sqrt(r2 - dy2);
    const int xlo = std::max(0, static_cast<int>(std::ceil(cx - half)));
    const int xhi = std::min(width - 1, static_cast<int>(std::floor(cx + half)));
    const float* row = img.data() + static_cast<std::size_t>(y) * width;
    for (int x = xlo; x <= xhi; ++x) lane[x & 3] += std::fabs(row[x]);
    count += static_cast<std::size_t>(std::max(0, xhi - xlo + 1));
  }
  return {(lane[0] + lane[1]) + (lane[2] + lane[3]), count};
}

}  // namespace

double asymmetry_statistic(const image::Image& img, double cx, double cy,
                           double radius) {
  return *asymmetry_rows(img, cx, cy, radius, [](double, double) { return false; });
}

AsymmetrySearch asymmetry_search(const image::Image& img, double cx, double cy,
                                 double radius) {
  // Every center the search visits lies within 0.75 px of (cx, cy) on each
  // axis, so within 0.75 * sqrt(2) < 1.0607 px of it, and every disc it
  // evaluates lies inside the disc of radius + 1.07 about (cx, cy). That
  // disc's sum of |v| bounds every evaluation's `den` once it is widened
  // past the rounding of either sum: n - 1 additions of non-negative terms
  // err by at most (n - 1) * 2^-53 relative, in any order.
  const auto [abs_sum, pixels] = abs_sum_in_disc(img, cx, cy, radius + 1.07);
  const double den_up =
      abs_sum * (1.0 + 1e-9 + static_cast<double>(pixels) * 0x1p-52);

  // The winner is the first minimum in row-major order of the coarse grid,
  // then of the refinement grid, whose center is the coarse winner itself;
  // before any value (all of them could be +inf) the sentinel 1e300 holds
  // at the centroid, and it is beaten only by a smaller value.
  AsymmetrySearch out{1e300, cx, cy, 0};
  const auto evaluate = [&](double x, double y, bool wins_ties) {
    // Every term of `num` is non-negative and IEEE addition is monotone,
    // so `num` never decreases from one row to the next; correctly rounded
    // division is monotone in both operands, so num / (2 den_up) after any
    // row is a lower bound on the final value. It holds only once `den` is
    // above 0: a zero final `den` makes the value 0 whatever `num` is.
    const double best = out.value;
    const auto cannot_win = [&](double num, double den) {
      if (!(den > 0.0)) return false;
      const double lower = num / (2.0 * den_up);
      return wins_ties ? lower > best : lower >= best;
    };
    const std::optional<double> a = asymmetry_rows(img, x, y, radius, cannot_win);
    if (!a) {
      ++out.evaluations_stopped;
      return false;
    }
    const bool wins = wins_ties ? *a <= out.value : *a < out.value;
    if (!wins) return false;
    out.value = *a;
    out.x = x;
    out.y = y;
    return true;
  };
  // Cell c of a 3x3 grid (row-major, 4 the center) about (bx, by).
  const auto cell = [&](double bx, double by, double step, int c, bool wins_ties) {
    return evaluate(bx + (c % 3 - 1) * step, by + (c / 3 - 1) * step, wins_ties);
  };
  // Coarse 0.5 px grid, center first: its value is the bound the other
  // eight must beat. A cell before the current winner in row-major order
  // wins a tie, any other cell needs a smaller value. `winner` is the
  // winning cell, or -1 while the sentinel holds.
  int winner = cell(cx, cy, 0.5, 4, false) ? 4 : -1;
  for (int c = 0; c < 9; ++c) {
    if (c != 4 && cell(cx, cy, 0.5, c, c < winner)) winner = c;
  }
  // 0.25 px refinement about the coarse winner, which is already evaluated
  // and keeps ties.
  const double base_x = out.x;
  const double base_y = out.y;
  for (int c = 0; c < 9; ++c) {
    if (c != 4) cell(base_x, base_y, 0.25, c, false);
  }
  return out;
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

  // --- asymmetry: minimize over sub-pixel recentering, then subtract the
  // analytic noise floor ---
  const double best =
      asymmetry_search(img, centroid.x, centroid.y, aperture).value;
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
