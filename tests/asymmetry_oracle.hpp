// The asymmetry search that core::asymmetry_search's bounded evaluation
// replaced, kept as its oracle: all 17 recentred statistics evaluated in
// full (a 0.5 px 3x3 grid in row-major order, then a 0.25 px 3x3 grid about
// its winner that skips its center), strict < so the first minimum wins.
// The bounded search must return the same value and center, bit for bit.
#pragma once

#include "core/morphology.hpp"
#include "image/image.hpp"

namespace nvo::core::oracle {

inline AsymmetrySearch exhaustive_asymmetry_search(const image::Image& img, double cx,
                                                   double cy, double radius) {
  AsymmetrySearch out{1e300, cx, cy, 0};
  for (double step : {0.5, 0.25}) {
    const double base_x = out.x;
    const double base_y = out.y;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (step == 0.25 && dx == 0 && dy == 0) continue;
        const double x = base_x + dx * step;
        const double y = base_y + dy * step;
        const double a = asymmetry_statistic(img, x, y, radius);
        if (a < out.value) {
          out.value = a;
          out.x = x;
          out.y = y;
        }
      }
    }
  }
  return out;
}

}  // namespace nvo::core::oracle
