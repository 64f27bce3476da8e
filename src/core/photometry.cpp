#include "core/photometry.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/lanes.hpp"

namespace nvo::core {

namespace {

using lanes::f32x4;
using lanes::f64x4;
using lanes::mask64x4;

// Half-diagonal margin (in pixels) around an aperture radius inside which a
// pixel can straddle the boundary. The 4x4 sub-sample grid spans at most
// ~0.53 px from the pixel center, so the weight is exactly 1 inside
// r - 0.71 and exactly 0 outside r + 0.71; classifying a pixel on either
// side of those cuts cannot change its contribution.
constexpr double kBoundaryBand = 0.71;

// The four sub-sample offsets along each axis, from the pixel's low edge.
constexpr f64x4 kSubOffset = {0.125, 0.375, 0.625, 0.875};

/// Covered fraction (in sixteenths) of the pixel centered at (x, y) for a
/// circular aperture of squared radius r2 about (cx, cy): the 4x4
/// sub-sample count of the direct scan's boundary pixels (CurveOfGrowth
/// reads the same squares off tables it fills once per build). Sample
/// (sx, sy) sits at (x - 0.5 + (sx + 0.5) / 4, y - 0.5 + (sy + 0.5) / 4);
/// the four column offsets are squared once in one vector, and each sample
/// row compares all four against r2 at once.
inline int subsampled_coverage(int x, int y, double cx, double cy, double r2) {
  const f64x4 ddx = ((x - 0.5) + kSubOffset) - cx;
  const f64x4 ddy = ((y - 0.5) + kSubOffset) - cy;
  const f64x4 dx2 = ddx * ddx;
  const f64x4 dy2 = ddy * ddy;
  mask64x4 inside = {};
  for (int sy = 0; sy < 4; ++sy) inside += dx2 + dy2[sy] <= r2;
  // Each covered sample added -1 (all bits set) to its column's element.
  return static_cast<int>(-(inside[0] + inside[1] + inside[2] + inside[3]));
}

// Relative margin of the shells a query scans. A pixel's shell is
// floor(sqrt(d2)), and a cut at r keeps it by comparing d2 with r * r. A
// correctly rounded sqrt is monotone and returns r for r * r, so a pixel
// kept below an outer cut r lies in a shell of at most floor(r), and one
// kept above an inner cut r in a shell of at least floor(r). The queries
// scan from floor(r * (1 - margin)) up to floor(r * (1 + margin)), so that
// rounding a cut's square some other way could not drop a pixel that counts
// either. A pixel outside the scan would only add 0.0 to a lane that is
// never -0.0, so skipping it moves no bit.
constexpr double kShellMargin = 1e-12;

// Margin, in pixels, of the ring of pixels an extension of the curve visits
// (see CurveOfGrowth::ensure). It dwarfs the rounding of the ring's row
// intervals, and a pixel at distance exactly k from the center is in shell
// k, so the inner edge needs it too.
constexpr double kExtentMargin = 1.0;

}  // namespace

Centroid find_centroid(const image::Image& img, double radius, int max_iterations) {
  Centroid c;
  c.x = (img.width() - 1) / 2.0;
  c.y = (img.height() - 1) / 2.0;
  for (int it = 0; it < max_iterations; ++it) {
    // Each moment runs four lanes in one vector register (core/lanes.hpp):
    // lane j sums the pixels of columns x with x mod 4 == j, row by row, and
    // the lanes fold at the end.
    f64x4 sum_l = {};
    f64x4 sx_l = {};
    f64x4 sy_l = {};
    const int x0 = std::max(0, static_cast<int>(c.x - radius));
    const int x1 = std::min(img.width() - 1, static_cast<int>(c.x + radius));
    const int y0 = std::max(0, static_cast<int>(c.y - radius));
    const int y1 = std::min(img.height() - 1, static_cast<int>(c.y + radius));
    const double r2 = radius * radius;
    for (int y = y0; y <= y1; ++y) {
      const double dy = y - c.y;
      const double dy2 = dy * dy;
      if (dy2 > r2) continue;
      // In-circle x-interval: bracket by sqrt with one pixel of slack, then
      // tighten with the exact per-pixel predicate, so the pixel set is
      // identical to the full scan's.
      const double half = std::sqrt(r2 - dy2);
      int xlo = std::max(x0, static_cast<int>(std::ceil(c.x - half)) - 1);
      int xhi = std::min(x1, static_cast<int>(std::floor(c.x + half)) + 1);
      while (xlo <= xhi) {
        const double dx = xlo - c.x;
        if (!(dx * dx + dy2 > r2)) break;
        ++xlo;
      }
      while (xhi >= xlo) {
        const double dx = xhi - c.x;
        if (!(dx * dx + dy2 > r2)) break;
        --xhi;
      }
      const float* row = img.data() + static_cast<std::size_t>(y) * img.width();
      const auto pixel = [&](int x) {
        const double w = std::max(0.0f, row[x]);
        lanes::add_to_lane(sum_l, x, w);
        lanes::add_to_lane(sx_l, x, w * x);
        lanes::add_to_lane(sy_l, x, w * y);
      };
      int x = xlo;
      for (; x <= xhi && (x & 3) != 0; ++x) pixel(x);
      for (; x + 3 <= xhi; x += 4) {
        // std::max(0.0f, v) keeps 0 unless 0 < v.
        const f32x4 v = lanes::load4(row + x);
        const f64x4 w = __builtin_convertvector(v > 0.0f ? v : f32x4{}, f64x4);
        sum_l += w;
        sx_l += w * (static_cast<double>(x) + lanes::kLaneIndex);
        sy_l += w * static_cast<double>(y);
      }
      for (; x <= xhi; ++x) pixel(x);
    }
    const double sum = lanes::fold(sum_l);
    const double sx = lanes::fold(sx_l);
    const double sy = lanes::fold(sy_l);
    if (sum <= 0.0) return c;  // not converged
    const double nx = sx / sum;
    const double ny = sy / sum;
    const double shift = std::hypot(nx - c.x, ny - c.y);
    c.x = nx;
    c.y = ny;
    if (shift < 0.05) {
      c.converged = true;
      return c;
    }
  }
  return c;
}

double aperture_flux(const image::Image& img, double cx, double cy, double radius) {
  if (radius <= 0.0) return 0.0;
  double flux = 0.0;
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - radius - 1)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + radius + 1)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - radius - 1)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + radius + 1)));
  const double r2 = radius * radius;
  // Squared-distance cuts for the fully-inside / fully-outside fast paths;
  // no per-pixel sqrt. A negative inner edge (radius < band) disables the
  // inside fast path rather than matching d2 <= (negative)^2.
  const double inner = radius - kBoundaryBand;
  const double inner2 = inner > 0.0 ? inner * inner : -1.0;
  const double outer2 = (radius + kBoundaryBand) * (radius + kBoundaryBand);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      const double d2 = dx * dx + dy * dy;
      if (d2 >= outer2) continue;
      if (d2 <= inner2) {
        flux += img.at(x, y);
        continue;
      }
      flux += img.at(x, y) * subsampled_coverage(x, y, cx, cy, r2) / 16.0;
    }
  }
  return flux;
}

double annulus_mean(const image::Image& img, double cx, double cy, double r_in,
                    double r_out) {
  double sum = 0.0;
  int count = 0;
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - r_out)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + r_out)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - r_out)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + r_out)));
  const double in2 = r_in * r_in;
  const double out2 = r_out * r_out;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      const double d2 = dx * dx + dy * dy;
      if (d2 < in2 || d2 >= out2) continue;
      sum += img.at(x, y);
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

std::optional<double> radius_enclosing(const image::Image& img, double cx, double cy,
                                       double fraction, double total_flux,
                                       double max_radius) {
  CurveOfGrowth cog;
  cog.build(img, cx, cy);
  return cog.radius_enclosing(fraction, total_flux, max_radius);
}

std::optional<double> petrosian_radius(const image::Image& img, double cx, double cy,
                                       double eta, double max_radius) {
  CurveOfGrowth cog;
  cog.build(img, cx, cy);
  return cog.petrosian_radius(eta, max_radius);
}

void CurveOfGrowth::build(const image::Image& img, double cx, double cy,
                          std::nullptr_t) {
  img_ = &img;
  cx_ = cx;
  cy_ = cy;
  width_ = img.width();
  height_ = img.height();
  built_ = 0;
  const std::size_t n = img.size();
  if (n == 0) {
    num_shells_ = 0;
    return;
  }
  // Shell count from the farthest frame corner; per-entry clamping in
  // ensure() makes the exact value uncritical.
  double d2max = 0.0;
  for (int corner = 0; corner < 4; ++corner) {
    const double dx = (corner & 1 ? width_ - 1 : 0) - cx;
    const double dy = (corner & 2 ? height_ - 1 : 0) - cy;
    d2max = std::max(d2max, dx * dx + dy * dy);
  }
  num_shells_ = static_cast<int>(std::sqrt(d2max)) + 2;
  // Every buffer is sized for the whole frame and any center inside it (no
  // corner is farther than the diagonal) and never shrinks, so a workspace
  // that has measured one frame of this size never grows for another,
  // however far its queries reach.
  const std::size_t shells = std::max(
      static_cast<std::size_t>(std::hypot(width_ - 1.0, height_ - 1.0)) + 3,
      static_cast<std::size_t>(num_shells_));
  const auto grow = [](auto& v, std::size_t size) {
    if (v.size() < size) v.resize(size);
  };
  grow(shell_start_, shells + 1);
  grow(shell_flux_prefix_, shells + 1);
  grow(cursor_, shells);
  grow(d2_, n);
  grow(value_, n);
  grow(x_, n);
  grow(y_, n);
  grow(shell_scratch_, n);
  shell_start_[0] = 0;
  shell_flux_prefix_[0] = 0.0;

  // Column squared offsets: d2 for pixel (x, y) is col_dx2_[x] + dy2, which
  // — with contraction disabled — is bit-identical to the direct
  // (dx*dx + dy*dy) the scan-based references evaluate. The sub-sample
  // tables square subsampled_coverage's offsets once per column and row, by
  // the same expression.
  col_dx2_.resize(static_cast<std::size_t>(width_));
  col_sub_dx2_.resize(4 * static_cast<std::size_t>(width_));
  row_sub_dy2_.resize(4 * static_cast<std::size_t>(height_));
  for (int x = 0; x < width_; ++x) {
    const double dx = x - cx;
    col_dx2_[x] = dx * dx;
    const f64x4 ddx = ((x - 0.5) + kSubOffset) - cx;
    const f64x4 dx2 = ddx * ddx;
    std::memcpy(col_sub_dx2_.data() + 4 * x, &dx2, sizeof dx2);
  }
  for (int y = 0; y < height_; ++y) {
    const f64x4 ddy = ((y - 0.5) + kSubOffset) - cy;
    const f64x4 dy2 = ddy * ddy;
    std::memcpy(row_sub_dy2_.data() + 4 * y, &dy2, sizeof dy2);
  }
}

void CurveOfGrowth::ensure(int shell_hi) {
  if (shell_hi <= built_) return;
  // Growth rule: at least 1.5x the built extent plus two shells, so a query
  // sequence that creeps outward (the Petrosian sweep) extends O(log R)
  // times.
  const int lo = built_;
  const int hi = std::min(std::max(shell_hi, lo + lo / 2 + 2), num_shells_);
  const int last_shell = num_shells_ - 1;
  // Pixels to visit, row by row: those within `outer` of the center, less
  // those within `inner`. Every pixel of a shell below hi lies closer than
  // hi, and every pixel closer than lo - 1 is in a shell below lo; the
  // margins keep the rounding of the row intervals on the safe side.
  const double outer = hi + kExtentMargin;
  const double outer2 = outer * outer;
  const double inner = lo - kExtentMargin;
  const double inner2 = inner > 0.0 ? inner * inner : 0.0;
  const int y0 = static_cast<int>(std::max(0.0, std::ceil(cy_ - outer)));
  const int y1 = static_cast<int>(std::min(height_ - 1.0, std::floor(cy_ + outer)));
  const auto for_each_segment = [&](const auto& fn) {
    for (int y = y0; y <= y1; ++y) {
      const double dy = y - cy_;
      const double dy2 = dy * dy;
      if (dy2 >= outer2) continue;
      const double half = std::sqrt(outer2 - dy2);
      const int xa = static_cast<int>(std::max(0.0, std::floor(cx_ - half)));
      const int xb = static_cast<int>(std::min(width_ - 1.0, std::ceil(cx_ + half)));
      if (dy2 < inner2) {
        const double skip = std::sqrt(inner2 - dy2);
        const int sa = static_cast<int>(std::max(-1.0, std::ceil(cx_ - skip)));
        const int sb =
            static_cast<int>(std::min(static_cast<double>(width_), std::floor(cx_ + skip)));
        fn(y, dy2, xa, std::min(xb, sa - 1));
        fn(y, dy2, std::max(xa, sb + 1), xb);
      } else {
        fn(y, dy2, xa, xb);
      }
    }
  };

  // Pass 1: the shell of every visited pixel (a vectorizable sqrt sweep over
  // the column offsets), in visiting order, and the counts of shells
  // [lo, hi), kept in shell_start_[s + 1]. A pixel outside [lo, hi) adds 0
  // to its slot, which is either already final (s < lo) or not yet valid
  // (s >= hi).
  std::uint32_t* start = shell_start_.data();
  std::fill(start + lo + 1, start + hi + 1, 0u);
  std::uint16_t* shells = shell_scratch_.data();
  std::size_t visited = 0;
  for_each_segment([&](int, double dy2, int xa, int xb) {
    std::uint16_t* seg = shells + visited;
    for (int x = xa; x <= xb; ++x) {
      const int s = std::min(static_cast<int>(std::sqrt(col_dx2_[x] + dy2)), last_shell);
      seg[x - xa] = static_cast<std::uint16_t>(s);
    }
    for (int x = xa; x <= xb; ++x) {
      const int s = seg[x - xa];
      start[s + 1] += (s >= lo && s < hi) ? 1u : 0u;
    }
    visited += static_cast<std::size_t>(std::max(0, xb - xa + 1));
  });
  for (int s = lo; s < hi; ++s) {
    start[s + 1] += start[s];
    cursor_[s] = start[s];
  }

  // Pass 2: scatter shells [lo, hi) in row-major order. Every pixel of those
  // shells is visited, so each lands at the index, and in the order within
  // its shell, that a scatter of the whole frame gives it.
  visited = 0;
  for_each_segment([&](int y, double dy2, int xa, int xb) {
    const std::uint16_t* seg = shells + visited;
    const float* row = img_->data() + static_cast<std::size_t>(y) * width_;
    for (int x = xa; x <= xb; ++x) {
      const int s = seg[x - xa];
      if (s < lo || s >= hi) continue;
      const std::uint32_t idx = cursor_[s]++;
      d2_[idx] = col_dx2_[x] + dy2;
      value_[idx] = row[x];
      x_[idx] = static_cast<std::uint16_t>(x);
      y_[idx] = static_cast<std::uint16_t>(y);
    }
    visited += static_cast<std::size_t>(std::max(0, xb - xa + 1));
  });

  // Per-shell flux sums (each summed in scatter order), then the prefix.
  for (int s = lo; s < hi; ++s) {
    double sum = 0.0;
    for (std::uint32_t e = start[s]; e < start[s + 1]; ++e) sum += value_[e];
    shell_flux_prefix_[static_cast<std::size_t>(s) + 1] =
        shell_flux_prefix_[static_cast<std::size_t>(s)] + sum;
  }
  built_ = hi;
}

int CurveOfGrowth::coverage(std::uint32_t i, double r2) const {
  f64x4 dx2 = {};
  std::memcpy(&dx2, col_sub_dx2_.data() + 4 * x_[i], sizeof dx2);
  const double* dy2 = row_sub_dy2_.data() + 4 * y_[i];
  mask64x4 inside = {};
  for (int sy = 0; sy < 4; ++sy) inside += dx2 + dy2[sy] <= r2;
  return static_cast<int>(-(inside[0] + inside[1] + inside[2] + inside[3]));
}

void CurveOfGrowth::scan_shells(int shell_lo, int shell_hi, double in2, double out2,
                                double& sum, int& count) const {
  shell_lo = std::clamp(shell_lo, 0, num_shells_);
  shell_hi = std::clamp(shell_hi, shell_lo, num_shells_);
  const double* d2 = d2_.data();
  const float* val = value_.data();
  // Branchless interval test over the contiguous d2/value streams, four
  // lanes in vector registers (core/lanes.hpp). An entry outside the
  // interval adds 0.0 to its lane, as the one-entry-at-a-time loop does.
  f64x4 acc = {};
  int cnt = 0;
  const auto entry = [&](std::uint32_t i) {
    const bool in = !(d2[i] < in2 || d2[i] >= out2);
    lanes::add_to_lane(acc, i, in ? static_cast<double>(val[i]) : 0.0);
    cnt += in ? 1 : 0;
  };
  std::uint32_t i = shell_start_[shell_lo];
  const std::uint32_t end = shell_start_[shell_hi];
  for (; i < end && (i & 3) != 0; ++i) entry(i);
  mask64x4 outside_count = {};
  std::uint32_t blocks = 0;
  for (; i + 4 <= end; i += 4, ++blocks) {
    f64x4 d = {};
    std::memcpy(&d, d2 + i, sizeof d);
    const mask64x4 outside = (d < in2) | (d >= out2);
    acc += outside ? f64x4{} : __builtin_convertvector(lanes::load4(val + i), f64x4);
    outside_count += outside;
  }
  // Each outside entry added -1 (all bits set) to its element.
  cnt += static_cast<int>(4 * blocks + (outside_count[0] + outside_count[1]) +
                          (outside_count[2] + outside_count[3]));
  for (; i < end; ++i) entry(i);
  sum += lanes::fold(acc);
  count += cnt;
}

double CurveOfGrowth::aperture_flux(double radius) {
  if (radius <= 0.0 || num_shells_ == 0) return 0.0;
  const double r2 = radius * radius;
  const double inner = radius - kBoundaryBand;
  const double inner2 = inner > 0.0 ? inner * inner : -1.0;
  const double outer = radius + kBoundaryBand;
  const double outer2 = outer * outer;
  // Shells [0, full) lie strictly inside radius - band (one whole shell of
  // margin, far beyond any sqrt rounding): their flux is a prefix lookup.
  // Shells from `last` on lie outside radius + band (see kShellMargin) and
  // would only add 0.0.
  const int full =
      std::clamp(inner > 1.0 ? static_cast<int>(inner) - 1 : 0, 0, num_shells_);
  const int last =
      std::clamp(static_cast<int>(outer * (1.0 + kShellMargin)) + 1, full, num_shells_);
  ensure(last);
  double flux = shell_flux_prefix_[full];
  // Straddling shells: the same squared-distance cuts and sub-pixel
  // boundary weighting as the direct scan, applied per entry. Interior
  // entries sum into four lanes in vector registers (core/lanes.hpp), the
  // others adding 0.0 to their lane as the one-entry-at-a-time loop does;
  // genuine boundary pixels add their weighted value to `flux` in index
  // order.
  const double* d2s = d2_.data();
  const float* vals = value_.data();
  f64x4 acc = {};
  const auto entry = [&](std::uint32_t i) {
    const double d2 = d2s[i];
    const bool interior = d2 <= inner2;
    const bool outside = d2 >= outer2;
    lanes::add_to_lane(acc, i, interior ? static_cast<double>(vals[i]) : 0.0);
    if (!interior && !outside) {
      flux += vals[i] * coverage(i, r2) / 16.0;
    }
  };
  std::uint32_t i = shell_start_[full];
  const std::uint32_t end = shell_start_[last];
  for (; i < end && (i & 3) != 0; ++i) entry(i);
  for (; i + 4 <= end; i += 4) {
    f64x4 d = {};
    std::memcpy(&d, d2s + i, sizeof d);
    const mask64x4 interior = d <= inner2;
    acc += interior ? __builtin_convertvector(lanes::load4(vals + i), f64x4) : f64x4{};
    const mask64x4 boundary = ~interior & ~(d >= outer2);
    if (!lanes::any(boundary)) continue;
    for (std::uint32_t j = 0; j < 4; ++j) {
      if (boundary[j] != 0) flux += vals[i + j] * coverage(i + j, r2) / 16.0;
    }
  }
  for (; i < end; ++i) entry(i);
  return flux + lanes::fold(acc);
}

double CurveOfGrowth::annulus_mean(double r_in, double r_out) {
  if (num_shells_ == 0 || r_out <= 0.0) return 0.0;
  const double in2 = r_in * r_in;
  const double out2 = r_out * r_out;
  // Whole shells strictly inside [r_in, r_out) resolve by prefix lookup;
  // the edge shells are scanned with the exact pixel-center cuts. Shells
  // below `scan_lo` lie inside r_in, and shells from `scan_hi` on outside
  // r_out (see kShellMargin): they would only add 0.0.
  const int full_lo = std::clamp(static_cast<int>(r_in) + 1, 0, num_shells_);
  const int full_hi =
      std::clamp(r_out > 1.0 ? static_cast<int>(r_out) - 1 : 0, full_lo, num_shells_);
  const int scan_lo = r_in > 0.0 ? static_cast<int>(r_in * (1.0 - kShellMargin)) : 0;
  const int scan_hi = static_cast<int>(r_out * (1.0 + kShellMargin)) + 1;
  ensure(std::max(full_hi, std::min(scan_hi, num_shells_)));
  double sum = shell_flux_prefix_[full_hi] - shell_flux_prefix_[full_lo];
  int count = static_cast<int>(shell_start_[full_hi] - shell_start_[full_lo]);
  scan_shells(scan_lo, full_lo, in2, out2, sum, count);
  scan_shells(full_hi, scan_hi, in2, out2, sum, count);
  return count > 0 ? sum / count : 0.0;
}

std::optional<double> CurveOfGrowth::radius_enclosing(double fraction,
                                                      double total_flux,
                                                      double max_radius) {
  if (total_flux <= 0.0 || fraction <= 0.0 || fraction >= 1.0) return std::nullopt;
  const double target = fraction * total_flux;
  double lo = 0.0;
  double hi = max_radius;
  if (aperture_flux(hi) < target) return std::nullopt;
  for (int it = 0; it < 40 && hi - lo > 0.01; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (aperture_flux(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::optional<double> CurveOfGrowth::petrosian_radius(double eta,
                                                      double max_radius) {
  const double limit =
      std::min({max_radius, static_cast<double>(width_),
                static_cast<double>(height_)});
  const double pi = 3.14159265358979323846;
  for (double r = 1.5; r <= limit; r += 0.5) {
    const double enclosed = aperture_flux(r);
    const double area = pi * r * r;
    const double mean_interior = enclosed / area;
    if (mean_interior <= 0.0) return std::nullopt;
    // Fixed +-0.8 pixel band: a proportional band (0.9r..1.1r) is empty of
    // pixel centers at small radii on the integer lattice.
    const double local = annulus_mean(std::max(r - 0.8, 0.0), r + 0.8);
    if (local < eta * mean_interior) return r;
  }
  return std::nullopt;
}

}  // namespace nvo::core
