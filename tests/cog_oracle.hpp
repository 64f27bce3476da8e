// The eager curve of growth that core::CurveOfGrowth's lazy extension
// replaced, kept as its oracle. The build counting-sorts every pixel of the
// frame into one-pixel radial shells (a histogram, then a row-major
// scatter into structure-of-arrays storage) and sums each shell serially;
// the queries are the production queries, one entry at a time (lane j of
// the four-lane sums takes index j mod 4, as in core/lanes.hpp), with the
// sub-sample offsets squared per call. The lazy curve must return the same
// bits for every query, in any order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/lanes.hpp"
#include "image/image.hpp"

namespace nvo::core::oracle {

class EagerCurveOfGrowth {
 public:
  EagerCurveOfGrowth(const image::Image& img, double cx, double cy)
      : cx_(cx), cy_(cy), width_(img.width()), height_(img.height()) {
    const std::size_t n = img.size();
    if (n == 0) return;
    double d2max = 0.0;
    for (int corner = 0; corner < 4; ++corner) {
      const double dx = (corner & 1 ? width_ - 1 : 0) - cx;
      const double dy = (corner & 2 ? height_ - 1 : 0) - cy;
      d2max = std::max(d2max, dx * dx + dy * dy);
    }
    num_shells_ = static_cast<int>(std::sqrt(d2max)) + 2;
    const int last_shell = num_shells_ - 1;
    std::vector<double> col_dx2(static_cast<std::size_t>(width_));
    for (int x = 0; x < width_; ++x) {
      const double dx = x - cx;
      col_dx2[x] = dx * dx;
    }
    std::vector<int> shell(n);
    std::vector<std::uint32_t> cursor(static_cast<std::size_t>(num_shells_), 0);
    for (int y = 0; y < height_; ++y) {
      const double dy = y - cy;
      const double dy2 = dy * dy;
      for (int x = 0; x < width_; ++x) {
        const int s = std::min(static_cast<int>(std::sqrt(col_dx2[x] + dy2)), last_shell);
        shell[static_cast<std::size_t>(y) * width_ + x] = s;
        ++cursor[s];
      }
    }
    shell_start_.assign(static_cast<std::size_t>(num_shells_) + 1, 0);
    for (int s = 0; s < num_shells_; ++s) {
      shell_start_[s + 1] = shell_start_[s] + cursor[s];
      cursor[s] = shell_start_[s];
    }
    d2_.resize(n);
    value_.resize(n);
    x_.resize(n);
    y_.resize(n);
    for (int y = 0; y < height_; ++y) {
      const double dy = y - cy;
      const double dy2 = dy * dy;
      for (int x = 0; x < width_; ++x) {
        const std::uint32_t idx = cursor[shell[static_cast<std::size_t>(y) * width_ + x]]++;
        d2_[idx] = col_dx2[x] + dy2;
        value_[idx] = img.at(x, y);
        x_[idx] = x;
        y_[idx] = y;
      }
    }
    shell_flux_prefix_.assign(static_cast<std::size_t>(num_shells_) + 1, 0.0);
    for (int s = 0; s < num_shells_; ++s) {
      double sum = 0.0;
      for (std::uint32_t e = shell_start_[s]; e < shell_start_[s + 1]; ++e) sum += value_[e];
      shell_flux_prefix_[s + 1] = sum;
    }
    for (int s = 0; s < num_shells_; ++s) shell_flux_prefix_[s + 1] += shell_flux_prefix_[s];
  }

  double aperture_flux(double radius) const {
    if (radius <= 0.0 || value_.empty()) return 0.0;
    const double r2 = radius * radius;
    const double inner = radius - kBoundaryBand;
    const double inner2 = inner > 0.0 ? inner * inner : -1.0;
    const double outer = radius + kBoundaryBand;
    const double outer2 = outer * outer;
    const int full =
        std::clamp(inner > 1.0 ? static_cast<int>(inner) - 1 : 0, 0, num_shells_);
    const int last = std::clamp(static_cast<int>(outer) + 2, full, num_shells_);
    double flux = shell_flux_prefix_[full];
    const double* d2s = d2_.data();
    const float* vals = value_.data();
    lanes::f64x4 acc = {};
    const auto entry = [&](std::uint32_t i) {
      const double d2 = d2s[i];
      const bool interior = d2 <= inner2;
      const bool outside = d2 >= outer2;
      lanes::add_to_lane(acc, i, interior ? static_cast<double>(vals[i]) : 0.0);
      if (!interior && !outside) flux += vals[i] * coverage(x_[i], y_[i], r2) / 16.0;
    };
    for (std::uint32_t i = shell_start_[full]; i < shell_start_[last]; ++i) entry(i);
    return flux + lanes::fold(acc);
  }

  double annulus_mean(double r_in, double r_out) const {
    if (value_.empty() || r_out <= 0.0) return 0.0;
    const double in2 = r_in * r_in;
    const double out2 = r_out * r_out;
    const int full_lo = std::clamp(static_cast<int>(r_in) + 1, 0, num_shells_);
    const int full_hi =
        std::clamp(r_out > 1.0 ? static_cast<int>(r_out) - 1 : 0, full_lo, num_shells_);
    const int scan_lo = r_in > 1.0 ? static_cast<int>(r_in) - 1 : 0;
    const int scan_hi = static_cast<int>(r_out) + 2;
    double sum = shell_flux_prefix_[full_hi] - shell_flux_prefix_[full_lo];
    int count = static_cast<int>(shell_start_[full_hi] - shell_start_[full_lo]);
    scan_shells(scan_lo, full_lo, in2, out2, sum, count);
    scan_shells(full_hi, scan_hi, in2, out2, sum, count);
    return count > 0 ? sum / count : 0.0;
  }

  std::optional<double> radius_enclosing(double fraction, double total_flux,
                                         double max_radius) const {
    if (total_flux <= 0.0 || fraction <= 0.0 || fraction >= 1.0) return std::nullopt;
    const double target = fraction * total_flux;
    double lo = 0.0;
    double hi = max_radius;
    if (aperture_flux(hi) < target) return std::nullopt;
    for (int it = 0; it < 40 && hi - lo > 0.01; ++it) {
      const double mid = 0.5 * (lo + hi);
      (aperture_flux(mid) < target ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }

  std::optional<double> petrosian_radius(double eta, double max_radius) const {
    const double limit = std::min({max_radius, static_cast<double>(width_),
                                   static_cast<double>(height_)});
    const double pi = 3.14159265358979323846;
    for (double r = 1.5; r <= limit; r += 0.5) {
      const double mean_interior = aperture_flux(r) / (pi * r * r);
      if (mean_interior <= 0.0) return std::nullopt;
      const double local = annulus_mean(std::max(r - 0.8, 0.0), r + 0.8);
      if (local < eta * mean_interior) return r;
    }
    return std::nullopt;
  }

 private:
  static constexpr double kBoundaryBand = 0.71;

  int coverage(int x, int y, double r2) const {
    using lanes::f64x4;
    constexpr f64x4 kSubOffset = {0.125, 0.375, 0.625, 0.875};
    const f64x4 ddx = ((x - 0.5) + kSubOffset) - cx_;
    const f64x4 ddy = ((y - 0.5) + kSubOffset) - cy_;
    const f64x4 dx2 = ddx * ddx;
    const f64x4 dy2 = ddy * ddy;
    lanes::mask64x4 inside = {};
    for (int sy = 0; sy < 4; ++sy) inside += dx2 + dy2[sy] <= r2;
    return static_cast<int>(-(inside[0] + inside[1] + inside[2] + inside[3]));
  }

  void scan_shells(int shell_lo, int shell_hi, double in2, double out2, double& sum,
                   int& count) const {
    shell_lo = std::clamp(shell_lo, 0, num_shells_);
    shell_hi = std::clamp(shell_hi, shell_lo, num_shells_);
    lanes::f64x4 acc = {};
    for (std::uint32_t i = shell_start_[shell_lo]; i < shell_start_[shell_hi]; ++i) {
      const bool in = !(d2_[i] < in2 || d2_[i] >= out2);
      lanes::add_to_lane(acc, i, in ? static_cast<double>(value_[i]) : 0.0);
      count += in ? 1 : 0;
    }
    sum += lanes::fold(acc);
  }

  double cx_;
  double cy_;
  int width_;
  int height_;
  int num_shells_ = 0;
  std::vector<double> d2_;
  std::vector<float> value_;
  std::vector<int> x_;
  std::vector<int> y_;
  std::vector<std::uint32_t> shell_start_;
  std::vector<double> shell_flux_prefix_;
};

}  // namespace nvo::core::oracle
