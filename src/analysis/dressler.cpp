#include "analysis/dressler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.hpp"

namespace nvo::analysis {

bool classify_early_type(double concentration, double asymmetry,
                         const ClassifierThresholds& thresholds) {
  return concentration - thresholds.asymmetry_weight * asymmetry >=
         thresholds.score_threshold;
}

namespace {

/// One tangent-plane axis cut into slabs at quantiles of the coordinates.
/// slab_of counts the cuts at or below a value, so it is monotone: every
/// coordinate in slab s >= 1 is >= cuts[s - 1], and every coordinate in a
/// slab <= s is < cuts[s]. The k-NN search bounds distances with these
/// cuts, so a cut that rounding or a tie puts "wrong" costs time only.
/// Quantile cuts keep the slabs even where the galaxies crowd toward the
/// cluster core, and a far outlier widens only the outermost slab.
struct SlabAxis {
  std::vector<double> cuts;

  SlabAxis(std::vector<double> coords, std::size_t slabs) {
    std::sort(coords.begin(), coords.end());
    for (std::size_t s = 1; s < slabs; ++s) {
      cuts.push_back(coords[s * coords.size() / slabs]);
    }
  }
  std::ptrdiff_t slabs() const { return static_cast<std::ptrdiff_t>(cuts.size()) + 1; }
  std::ptrdiff_t slab_of(double v) const {
    return std::upper_bound(cuts.begin(), cuts.end(), v) - cuts.begin();
  }
  /// Lower bound on (v - q)^2 for every v in slab s, where q is in slab qs.
  double gap2_to(std::ptrdiff_t s, std::ptrdiff_t qs, double q) const {
    if (s == qs) return 0.0;
    const double g = (s > qs ? cuts[s - 1] : cuts[s]) - q;
    return g * g;
  }
  /// Lower bound on (v - q)^2 for every v outside slabs [lo, hi], where q
  /// lies in slab lo..hi: +inf when no slab is left on either side.
  double gap2_outside(std::ptrdiff_t lo, std::ptrdiff_t hi, double q) const {
    double g2 = std::numeric_limits<double>::infinity();
    if (hi + 1 < slabs()) {
      const double g = cuts[hi] - q;
      g2 = g * g;
    }
    if (lo > 0) {
      const double g = cuts[lo - 1] - q;
      g2 = std::min(g2, g * g);
    }
    return g2;
  }
};

}  // namespace

std::vector<double> local_density_arcmin2(const std::vector<sky::Equatorial>& positions,
                                          const sky::Equatorial& center, int k) {
  const std::size_t n = positions.size();
  std::vector<double> out(n, 0.0);
  if (n < 2 || k < 1) return out;
  const std::size_t kk = std::min<std::size_t>(k, n - 1);

  // Tangent-plane coordinates (arcmin) about the cluster center make the
  // neighbor distances Euclidean. A galaxy without finite coordinates is
  // infinitely far from every other, so it stays out of the grid and its
  // density is 0.
  std::vector<double> xs(n), ys(n);
  std::vector<std::size_t> members;
  members.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sky::TangentPlane tp = sky::project_tan(center, positions[i]);
    xs[i] = tp.xi_deg * 60.0;
    ys[i] = tp.eta_deg * 60.0;
    if (std::isfinite(xs[i]) && std::isfinite(ys[i])) members.push_back(i);
  }
  if (members.empty()) return out;

  // Grid of about kCellTarget galaxies per cell, filled by counting sort.
  constexpr double kCellTarget = 8.0;
  const std::size_t slabs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::sqrt(members.size() / kCellTarget)));
  std::vector<double> mx, my;
  mx.reserve(members.size());
  my.reserve(members.size());
  for (const std::size_t i : members) {
    mx.push_back(xs[i]);
    my.push_back(ys[i]);
  }
  const SlabAxis xa(std::move(mx), slabs);
  const SlabAxis ya(std::move(my), slabs);
  const std::ptrdiff_t nx = xa.slabs();
  const std::ptrdiff_t ny = ya.slabs();
  std::vector<std::ptrdiff_t> cell_x(n), cell_y(n);
  std::vector<std::size_t> cell_start(static_cast<std::size_t>(nx * ny) + 1, 0);
  for (const std::size_t i : members) {
    cell_x[i] = xa.slab_of(xs[i]);
    cell_y[i] = ya.slab_of(ys[i]);
    ++cell_start[static_cast<std::size_t>(cell_y[i] * nx + cell_x[i]) + 1];
  }
  for (std::size_t c = 1; c < cell_start.size(); ++c) cell_start[c] += cell_start[c - 1];
  // Coordinates in cell order, so a cell's galaxies are contiguous.
  std::vector<double> cell_xs(members.size()), cell_ys(members.size());
  std::vector<std::size_t> slot_of(n);
  {
    std::vector<std::size_t> fill(cell_start.begin(), cell_start.end() - 1);
    for (const std::size_t i : members) {
      const std::size_t slot = fill[static_cast<std::size_t>(cell_y[i] * nx + cell_x[i])]++;
      cell_xs[slot] = xs[i];
      cell_ys[slot] = ys[i];
      slot_of[i] = slot;
    }
  }

  // Per galaxy: visit rings of cells outward, keeping the kk smallest
  // squared distances in ascending order. Each distance is the same
  // dx*dx + dy*dy the brute-force selection computed, and a cell or a ring
  // is skipped only once the slab gaps prove that none of its galaxies is
  // nearer than the kk-th found, so the k-th distance is bit-identical.
  std::vector<double> best(kk);
  for (const std::size_t i : members) {
    const double qx = xs[i];
    const double qy = ys[i];
    const std::ptrdiff_t cx = cell_x[i];
    const std::ptrdiff_t cy = cell_y[i];
    const std::size_t self = slot_of[i];
    std::size_t filled = 0;
    const auto visit = [&](std::ptrdiff_t x, std::ptrdiff_t y) {
      if (filled == kk &&
          xa.gap2_to(x, cx, qx) + ya.gap2_to(y, cy, qy) >= best[kk - 1]) {
        return;
      }
      const std::size_t c = static_cast<std::size_t>(y * nx + x);
      for (std::size_t p = cell_start[c]; p < cell_start[c + 1]; ++p) {
        const double dx = cell_xs[p] - qx;
        const double dy = cell_ys[p] - qy;
        const double d2 = dx * dx + dy * dy;
        if ((filled == kk && !(d2 < best[kk - 1])) || p == self) continue;
        std::size_t slot = filled < kk ? filled++ : kk - 1;
        for (; slot > 0 && best[slot - 1] > d2; --slot) best[slot] = best[slot - 1];
        best[slot] = d2;
      }
    };
    for (std::ptrdiff_t r = 0;; ++r) {
      const std::ptrdiff_t x0 = std::max<std::ptrdiff_t>(cx - r, 0);
      const std::ptrdiff_t x1 = std::min(cx + r, nx - 1);
      for (std::ptrdiff_t y = std::max<std::ptrdiff_t>(cy - r, 0);
           y <= std::min(cy + r, ny - 1); ++y) {
        if (y == cy - r || y == cy + r) {
          for (std::ptrdiff_t x = x0; x <= x1; ++x) visit(x, y);
        } else {
          if (cx - r >= 0) visit(cx - r, y);
          if (cx + r < nx) visit(cx + r, y);
        }
      }
      // Every unvisited galaxy lies beyond the ring on some axis, so its
      // squared distance is at least that axis's squared slab gap.
      const double bound = std::min(xa.gap2_outside(cx - r, cx + r, qx),
                                    ya.gap2_outside(cy - r, cy + r, qy));
      if (bound == std::numeric_limits<double>::infinity()) break;
      if (filled == kk && bound >= best[kk - 1]) break;
    }
    const double kth =
        filled == kk ? best[kk - 1] : std::numeric_limits<double>::infinity();
    const double dk = std::sqrt(std::max(kth, 1e-6));
    out[i] = static_cast<double>(kk) / (3.14159265358979323846 * dk * dk);
  }
  return out;
}

bool DresslerReport::relation_detected() const {
  return early_fraction_core > early_fraction_edge &&
         spearman_asymmetry_density < 0.0 && spearman_concentration_density > 0.0 &&
         spearman_asymmetry_radius > 0.0;
}

Expected<DresslerReport> analyze_cluster(const votable::Table& merged_catalog,
                                         const sky::Equatorial& cluster_center,
                                         std::size_t radial_bins,
                                         const ClassifierThresholds& thresholds) {
  // Columns are looked up once, then read by index on every row.
  enum Required { kId, kRa, kDec, kValid, kConcentration, kAsymmetry, kRequired };
  const char* const names[kRequired] = {"id",    "ra",            "dec",
                                        "valid", "concentration", "asymmetry"};
  std::size_t col[kRequired];
  for (std::size_t c = 0; c < kRequired; ++c) {
    const auto idx = merged_catalog.column_index(names[c]);
    if (!idx) {
      return Error(ErrorCode::kInvalidArgument,
                   std::string("catalog lacks column ") + names[c]);
    }
    col[c] = *idx;
  }
  const auto sb_col = merged_catalog.column_index("surface_brightness");

  DresslerReport report;
  std::vector<sky::Equatorial> positions;
  for (const votable::Row& row : merged_catalog.rows()) {
    const auto valid = row[col[kValid]].as_bool();
    if (!valid || !*valid) {
      ++report.invalid_dropped;
      continue;
    }
    AnalysisGalaxy g;
    if (const std::string* id = row[col[kId]].string_ref()) g.id = *id;
    g.position.ra_deg = row[col[kRa]].as_number().value_or(0.0);
    g.position.dec_deg = row[col[kDec]].as_number().value_or(0.0);
    g.concentration = row[col[kConcentration]].as_number().value_or(0.0);
    g.asymmetry = row[col[kAsymmetry]].as_number().value_or(0.0);
    g.surface_brightness = sb_col ? row[*sb_col].as_number().value_or(0.0) : 0.0;
    g.radius_arcmin =
        sky::angular_separation_deg(cluster_center, g.position) * 60.0;
    g.early_type = classify_early_type(g.concentration, g.asymmetry, thresholds);
    positions.push_back(g.position);
    report.galaxies.push_back(std::move(g));
  }
  if (report.galaxies.size() < 8) {
    return Error(ErrorCode::kInvalidArgument,
                 format("only %zu valid galaxies — too few for the analysis",
                        report.galaxies.size()));
  }

  const std::vector<double> density =
      local_density_arcmin2(positions, cluster_center);
  std::vector<double> radii, log_density, asym, conc;
  std::vector<bool> early;
  for (std::size_t i = 0; i < report.galaxies.size(); ++i) {
    AnalysisGalaxy& g = report.galaxies[i];
    g.log_local_density = std::log10(std::max(density[i], 1e-6));
    radii.push_back(g.radius_arcmin);
    log_density.push_back(g.log_local_density);
    asym.push_back(g.asymmetry);
    conc.push_back(g.concentration);
    early.push_back(g.early_type);
  }

  const double r_max = *std::max_element(radii.begin(), radii.end()) * 1.0001;
  report.early_fraction_vs_radius =
      binned_fraction(radii, early, radial_bins, 0.0, r_max);
  // The bins are half-open, so the top edge sits just above the densest
  // galaxy. Log densities are often negative: pad by a magnitude, never
  // scale, or the edge would fall below the maximum.
  const auto [d_min, d_max] = std::minmax_element(log_density.begin(), log_density.end());
  const double d_hi = *d_max + 1e-4 * std::max(std::abs(*d_max), 1.0);
  report.early_fraction_vs_density =
      binned_fraction(log_density, early, radial_bins, *d_min, d_hi);

  report.spearman_asymmetry_density = spearman(log_density, asym);
  report.spearman_concentration_density = spearman(log_density, conc);
  report.spearman_asymmetry_radius = spearman(radii, asym);

  // Core and edge fractions from the first / last populated radial bins.
  for (const BinnedFraction& b : report.early_fraction_vs_radius) {
    if (b.count > 0) {
      report.early_fraction_core = b.fraction;
      break;
    }
  }
  for (auto it = report.early_fraction_vs_radius.rbegin();
       it != report.early_fraction_vs_radius.rend(); ++it) {
    if (it->count > 0) {
      report.early_fraction_edge = it->fraction;
      break;
    }
  }
  return report;
}

std::string report_to_text(const DresslerReport& report) {
  std::string out;
  out += format("galaxies analyzed: %zu (dropped invalid: %zu)\n",
                report.galaxies.size(), report.invalid_dropped);
  out += "early-type fraction vs cluster radius (arcmin):\n";
  for (const BinnedFraction& b : report.early_fraction_vs_radius) {
    out += format("  r=%6.2f  f_early=%.3f  (n=%zu)\n", b.x_center, b.fraction,
                  b.count);
  }
  out += "early-type fraction vs log10 local density:\n";
  for (const BinnedFraction& b : report.early_fraction_vs_density) {
    out += format("  logS=%6.2f  f_early=%.3f  (n=%zu)\n", b.x_center, b.fraction,
                  b.count);
  }
  out += format("spearman(asymmetry, density)     = %+.3f (expect < 0)\n",
                report.spearman_asymmetry_density);
  out += format("spearman(concentration, density) = %+.3f (expect > 0)\n",
                report.spearman_concentration_density);
  out += format("spearman(asymmetry, radius)      = %+.3f (expect > 0)\n",
                report.spearman_asymmetry_radius);
  out += format("early fraction: core %.3f vs edge %.3f\n", report.early_fraction_core,
                report.early_fraction_edge);
  out += format("density-morphology relation detected: %s\n",
                report.relation_detected() ? "YES" : "no");
  return out;
}

}  // namespace nvo::analysis
