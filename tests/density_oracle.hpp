// Reference k-NN local density for analysis_test: the brute-force
// estimator that analysis::local_density_arcmin2 replaced. Every galaxy's
// squared distance to every other is selected with one n-long
// nth_element, O(n^2) in all. The production grid search must return the
// same bits, since it selects the k-th smallest of the same dx*dx + dy*dy
// values.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "sky/coords.hpp"

namespace nvo::analysis::oracle {

inline std::vector<double> local_density_arcmin2(
    const std::vector<sky::Equatorial>& positions, const sky::Equatorial& center,
    int k = 10) {
  const std::size_t n = positions.size();
  std::vector<double> out(n, 0.0);
  if (n < 2) return out;
  const int kk = std::min<int>(k, static_cast<int>(n) - 1);

  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sky::TangentPlane tp = sky::project_tan(center, positions[i]);
    xs[i] = tp.xi_deg * 60.0;
    ys[i] = tp.eta_deg * 60.0;
  }
  std::vector<double> d2(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = xs[j] - xs[i];
      const double dy = ys[j] - ys[i];
      d2[j] = dx * dx + dy * dy;
    }
    d2[i] = 1e300;  // exclude self
    std::nth_element(d2.begin(), d2.begin() + (kk - 1), d2.end());
    const double dk = std::sqrt(std::max(d2[kk - 1], 1e-6));
    out[i] = static_cast<double>(kk) / (3.14159265358979323846 * dk * dk);
  }
  return out;
}

}  // namespace nvo::analysis::oracle
