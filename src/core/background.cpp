#include "core/background.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/lanes.hpp"

namespace nvo::core {

BackgroundEstimate estimate_background(const image::Image& img, int border,
                                       int iterations, double clip_sigma,
                                       std::vector<float>& scratch) {
  BackgroundEstimate out;
  if (img.empty()) return out;
  border = std::min({border, img.width() / 2, img.height() / 2});
  border = std::max(border, 1);

  // Border samples in row-major order: whole rows in the top/bottom bands,
  // the two column bands elsewhere. Same sequence as a full-frame scan that
  // tests each pixel, without the per-pixel branch.
  const int w = img.width();
  const int h = img.height();
  scratch.clear();
  scratch.reserve(static_cast<std::size_t>(2 * border) * (w + h));
  for (int y = 0; y < h; ++y) {
    const float* row = img.data() + static_cast<std::size_t>(y) * w;
    if (y < border || y >= h - border) {
      scratch.insert(scratch.end(), row, row + w);
    } else {
      // border <= w/2, so the two bands [0, border) and [w-border, w) never
      // overlap (they touch when w == 2*border).
      scratch.insert(scratch.end(), row, row + border);
      scratch.insert(scratch.end(), row + (w - border), row + w);
    }
  }
  if (scratch.empty()) return out;

  // Iterative sigma clipping, in place: survivors of each round are packed
  // to the front of the buffer in their original order. The two moment sums
  // run four lanes in vector registers (core/lanes.hpp: lane j sums the
  // samples i with i mod 4 == j, then the lanes fold), whole blocks of four
  // from index 0 and the remainder scalar.
  using lanes::f64x4;
  double mean = 0.0;
  double sigma = 0.0;
  std::size_t count = scratch.size();
  const float* samples = scratch.data();
  for (int it = 0; it < iterations; ++it) {
    const std::size_t blocked = count & ~std::size_t{3};
    f64x4 sum_l = {};
    for (std::size_t i = 0; i < blocked; i += 4) {
      sum_l += __builtin_convertvector(lanes::load4(samples + i), f64x4);
    }
    for (std::size_t i = blocked; i < count; ++i) lanes::add_to_lane(sum_l, i, samples[i]);
    mean = lanes::fold(sum_l) / static_cast<double>(count);
    f64x4 var_l = {};
    for (std::size_t i = 0; i < blocked; i += 4) {
      const f64x4 d = __builtin_convertvector(lanes::load4(samples + i), f64x4) - mean;
      var_l += d * d;
    }
    for (std::size_t i = blocked; i < count; ++i) {
      lanes::add_to_lane(var_l, i, (samples[i] - mean) * (samples[i] - mean));
    }
    const double var = lanes::fold(var_l);
    sigma = count > 1 ? std::sqrt(var / static_cast<double>(count - 1)) : 0.0;
    if (sigma <= 0.0) break;
    const double cut = clip_sigma * sigma;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const float v = scratch[i];
      scratch[kept] = v;
      kept += std::fabs(v - mean) <= cut ? 1 : 0;
    }
    if (kept == count || kept < 8) break;
    count = kept;
  }
  out.level = mean;
  out.sigma = sigma;
  out.pixels_used = static_cast<int>(count);
  return out;
}

BackgroundEstimate estimate_background(const image::Image& img, int border,
                                       int iterations, double clip_sigma) {
  std::vector<float> scratch;
  return estimate_background(img, border, iterations, clip_sigma, scratch);
}

image::Image subtract_background(const image::Image& img,
                                 const BackgroundEstimate& bg) {
  image::Image out = img;
  const float level = static_cast<float>(bg.level);
  for (float& v : out.pixels()) v -= level;
  return out;
}

void subtract_background_into(const image::Image& img, const BackgroundEstimate& bg,
                              image::Image& out) {
  out.assign_from(img);
  const float level = static_cast<float>(bg.level);
  for (float& v : out.pixels()) v -= level;
}

}  // namespace nvo::core
