// Aperture photometry primitives underlying the morphology parameters:
// flux-weighted centroiding, circular-aperture flux with sub-pixel edge
// weighting, curve-of-growth radii (r20/r80 for the concentration index),
// and a Petrosian-style total-light radius that sets the measurement
// aperture independently of redshift dimming.
//
// The hot path is the CurveOfGrowth object: every radial query the kernel
// issues (aperture flux, r20/r80 bisection, the Petrosian sweep) reduces to
// a prefix-sum lookup over pixels counting-sorted into one-pixel radial
// shells about the centroid, instead of a fresh O(R^2) scan of the cutout
// per query. Only the few shells straddling a query radius are re-examined
// pixel by pixel — with the same squared-distance cuts and 4x4 sub-pixel
// boundary weighting as the direct scan — so the returned values match the
// scan-based functions to float-summation-order precision.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/parallel.hpp"
#include "image/image.hpp"

namespace nvo::core {

struct Centroid {
  double x = 0.0;
  double y = 0.0;
  bool converged = false;
};

/// Iterative flux-weighted centroid: starts at the frame center, computes
/// the first moment within `radius`, recenters, and repeats until the shift
/// falls below 0.05 pixels (or `max_iterations`). Works on
/// background-subtracted data; negative pixels are clamped to zero in the
/// weights so noise cannot drag the centroid off the source.
Centroid find_centroid(const image::Image& img, double radius,
                       int max_iterations = 12);

/// Flux within a circular aperture (sub-pixel edge handling by 2x2
/// sub-sampling of boundary pixels).
double aperture_flux(const image::Image& img, double cx, double cy, double radius);

/// Smallest radius whose enclosed flux reaches `fraction` of `total_flux`,
/// by bisection on the (monotone) curve of growth. nullopt when the total
/// is non-positive or the fraction is not reached within `max_radius`.
std::optional<double> radius_enclosing(const image::Image& img, double cx, double cy,
                                       double fraction, double total_flux,
                                       double max_radius);

/// Mean surface brightness in an annulus [r_in, r_out).
double annulus_mean(const image::Image& img, double cx, double cy, double r_in,
                    double r_out);

/// Petrosian radius: the radius where the local annular surface brightness
/// falls to `eta` (default 0.2) of the mean surface brightness interior to
/// it. Scanned outward in 0.5-pixel steps; nullopt if never reached.
std::optional<double> petrosian_radius(const image::Image& img, double cx, double cy,
                                       double eta = 0.2, double max_radius = 1e9);

/// Radial curve of growth about a fixed center, extended on demand. Pixels
/// are counting-sorted into one-pixel radial shells (histogram + scatter, no
/// comparison sort) with per-shell flux prefix sums; every radial query is
/// then O(1) for the interior shell prefix plus O(boundary ring) for the
/// exactly-resolved edge shells, rather than O(R^2).
///
/// The shells are built lazily. `build` only records the center and the
/// per-column and per-row offset tables; each query first extends the curve
/// out to the shells it reads, visiting only the ring of pixels that can lie
/// in the new shells. A measurement therefore costs O(pixels inside the
/// largest queried radius), not O(frame): a survey galaxy in a 64 px cutout
/// sorts about a quarter of its 4,096 pixels. Every entry lands at the same
/// index, in the same (row-major) order within its shell, as a build of the
/// whole frame would put it, so each result is bit-identical to the eager
/// curve whatever the order of the queries.
///
/// Lifetime: the curve keeps a pointer to `img` until the next `build`, and
/// reads its pixels whenever a query reaches past the shells built so far.
/// The image must outlive every query and must not change in between.
///
/// `build` reserves every buffer for the frame size, so a long-lived
/// instance measures an entire batch of same-sized cutouts without
/// steady-state heap allocation, however far the queries reach.
///
/// Pixels are held in structure-of-arrays form (d2 / value / x / y in
/// separate contiguous arrays): the query scans touch only the d2 and value
/// streams, so the inner loops are branchless compare-and-accumulate sweeps
/// over dense memory instead of strided walks over a 20-byte record.
class CurveOfGrowth {
 public:
  CurveOfGrowth() = default;

  /// Starts a new curve for `img` about (cx, cy), retaining a pointer to
  /// `img` (see the lifetime contract above). The executor is not used: a
  /// query extends the curve by a few hundred pixels, too little to tile.
  void build(const image::Image& img, double cx, double cy,
             const ParallelFor* par = nullptr);

  bool empty() const { return num_shells_ == 0; }
  double cx() const { return cx_; }
  double cy() const { return cy_; }

  /// Flux within `radius`, equal to aperture_flux(img, cx, cy, radius) up
  /// to floating-point summation order.
  double aperture_flux(double radius);

  /// Mean pixel value over the annulus [r_in, r_out), equal to
  /// annulus_mean(img, cx, cy, r_in, r_out) up to summation order.
  double annulus_mean(double r_in, double r_out);

  /// Smallest radius enclosing `fraction` of `total_flux`, by the same
  /// bisection as the free radius_enclosing but with O(log n) evaluations.
  std::optional<double> radius_enclosing(double fraction, double total_flux,
                                         double max_radius);

  /// Petrosian radius by the same outward 0.5-pixel sweep as the free
  /// petrosian_radius, each step answered from the prefix sums.
  std::optional<double> petrosian_radius(double eta = 0.2, double max_radius = 1e9);

 private:
  /// Extends the curve so shells [0, shell_hi) are sorted and summed.
  void ensure(int shell_hi);

  /// Accumulates value and pixel count over every entry in shells
  /// [shell_lo, shell_hi) whose exact squared distance lies in [in2, out2).
  /// The shared edge-resolution step of flux and annulus queries.
  void scan_shells(int shell_lo, int shell_hi, double in2, double out2,
                   double& sum, int& count) const;

  /// Covered sixteenths of entry i's pixel for squared radius r2: the 4x4
  /// sub-sample count of the direct scan, read off the offset tables.
  int coverage(std::uint32_t i, double r2) const;

  // Pixels grouped by integer radial shell, structure-of-arrays: index range
  // [shell_start_[s], shell_start_[s+1]) is shell s, in row-major order
  // (queries resolve exact thresholds per entry; the order only fixes the
  // summation order of the flux prefixes). Only shells [0, built_) are
  // valid; the arrays are sized for the whole frame. d2_ is kept in double
  // precision and computed from the one canonical expression (dx*dx + dy*dy,
  // contraction disabled tree-wide), so every query sees exactly the squared
  // distances the direct-scan reference computes.
  std::vector<double> d2_;          ///< squared distance from (cx, cy)
  std::vector<float> value_;        ///< pixel value
  std::vector<std::uint16_t> x_;    ///< pixel column (frames far below 65536)
  std::vector<std::uint16_t> y_;    ///< pixel row
  std::vector<std::uint32_t> shell_start_;  ///< valid up to [built_]
  std::vector<double> shell_flux_prefix_;   ///< prefix over whole shells
  std::vector<double> col_dx2_;             ///< (x-cx)^2 per column
  /// Squared offsets of the four sub-sample columns of each pixel column
  /// (4 per column) and of the four sub-sample rows of each pixel row.
  std::vector<double> col_sub_dx2_;
  std::vector<double> row_sub_dy2_;
  std::vector<std::uint32_t> cursor_;           ///< extension scratch: per-shell cursor
  std::vector<std::uint16_t> shell_scratch_;    ///< extension scratch: per-pixel shell
  const image::Image* img_ = nullptr;
  double cx_ = 0.0;
  double cy_ = 0.0;
  int width_ = 0;
  int height_ = 0;
  int num_shells_ = 0;
  int built_ = 0;  ///< shells [0, built_) are sorted and summed
};

}  // namespace nvo::core
