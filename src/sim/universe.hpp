// The synthetic universe: the data layer behind every simulated archive.
// Provides the eight-cluster campaign of paper §5 ("we used our prototype to
// separately analyze eight different galaxy clusters; the number of galaxies
// processed for each cluster ranged from 37 to 561"), field imagery, galaxy
// cutouts (with a controlled corruption rate driving the fault-tolerance
// path), and the heterogeneous catalog tables the portal must merge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "image/fits.hpp"
#include "image/wcs.hpp"
#include "sim/cluster.hpp"
#include "sim/render_cache.hpp"
#include "sim/xray.hpp"
#include "sky/cosmology.hpp"
#include "votable/table.hpp"

namespace nvo::sim {

struct UniverseConfig {
  std::uint64_t seed = 20031115;  ///< SC'03 demo date
  double corruption_rate = 0.04;  ///< fraction of cutouts that arrive bad
  RenderOptions render;           ///< survey sampling and noise
  XrayOptions xray;
  sky::Cosmology cosmology;       ///< paper defaults: H0=100, om=0.3, flat
};

class Universe {
 public:
  explicit Universe(UniverseConfig config) : config_(std::move(config)) {}

  /// Builds the paper's eight-cluster campaign. Cluster names follow the
  /// CNOC survey style; member counts span the paper's 37-561 range and sum
  /// to 1525 galaxies — the §5 image count. `population_scale` shrinks every
  /// cluster proportionally (minimum 8 members) for fast test runs.
  static Universe make_paper_campaign(std::uint64_t seed = 20031115,
                                      double population_scale = 1.0);

  const UniverseConfig& config() const { return config_; }
  const sky::Cosmology& cosmology() const { return config_.cosmology; }
  const std::vector<Cluster>& clusters() const { return clusters_; }

  void add_cluster(const ClusterSpec& spec);
  const Cluster* find_cluster(const std::string& name) const;

  /// Large-scale optical field: all members composited, noised, with a TAN
  /// WCS centered on the cluster. (The DSS image of Fig. 5/7.) Served from
  /// the process-wide RenderCache; synthesis is a pure function of the
  /// cluster truth, so cached frames are bit-identical to fresh renders.
  image::FitsFile optical_field(const Cluster& cluster, int size = 512,
                                double pixel_scale_arcsec = 2.0) const;
  /// The same frame as the archive stores it: encoded FITS bytes plus
  /// their digest, shared with the cache (no decode, no copy).
  std::shared_ptr<const EncodedFrame> optical_field_fits(
      const Cluster& cluster, int size = 512, double pixel_scale_arcsec = 2.0) const;

  /// Large-scale X-ray map (the ROSAT/Chandra image).
  image::FitsFile xray_field(const Cluster& cluster, int size = 256,
                             double pixel_scale_arcsec = 4.0) const;

  /// Per-galaxy cutout at the survey pixel scale, centered on the galaxy,
  /// including light from near neighbors (real cutouts are contaminated),
  /// noise, and — for a deterministic corruption_rate subset — a saturated
  /// defect band that makes morphology computation fail. Served from the
  /// process-wide RenderCache (see render_cache.hpp): all RNG streams are
  /// seeded from the truth records, never from request order, so a cache
  /// hit is bit-identical to a fresh render.
  image::FitsFile galaxy_cutout(const Cluster& cluster, const GalaxyTruth& galaxy,
                                int size = 64) const;
  /// The same cutout as the archive stores and serves it (see
  /// optical_field_fits).
  std::shared_ptr<const EncodedFrame> galaxy_cutout_fits(const Cluster& cluster,
                                                         const GalaxyTruth& galaxy,
                                                         int size = 64) const;

  /// Whether this galaxy's cutout is in the corrupted subset.
  bool cutout_is_corrupted(const GalaxyTruth& galaxy) const;

  /// NED-style catalog (IPAC data center): id, ra, dec, redshift, mag.
  votable::Table ned_catalog(const Cluster& cluster) const;

  /// CNOC-style catalog (CADC data center): id, ra, dec, radial velocity,
  /// g-r color — the second, heterogeneous table the portal joins in.
  votable::Table cnoc_catalog(const Cluster& cluster) const;

  /// Truth table for validation: id, type, radius_arcmin, plus the
  /// generative structural parameters.
  votable::Table truth_catalog(const Cluster& cluster) const;

 private:
  // Uncached synthesis bodies behind the RenderCache front doors.
  image::FitsFile render_optical_field(const Cluster& cluster, int size,
                                       double pixel_scale_arcsec) const;
  image::FitsFile render_galaxy_cutout(const Cluster& cluster,
                                       const GalaxyTruth& galaxy, int size) const;

  /// Render-key input standing for the cluster's whole population:
  /// precomputed for owned clusters, hashed in full for any other.
  std::uint64_t population_key_of(const Cluster& cluster) const;

  UniverseConfig config_;
  std::vector<Cluster> clusters_;
  std::vector<std::uint64_t> population_keys_;  ///< parallel to clusters_
};

/// Whether the galaxy's cutout falls in the deterministic corrupted subset
/// for a universe seeded `universe_seed` (the draw behind
/// Universe::cutout_is_corrupted, exposed for cache-less pipelines).
bool galaxy_cutout_is_corrupted(const GalaxyTruth& galaxy,
                                std::uint64_t universe_seed,
                                double corruption_rate);

/// Pure cutout synthesis, bypassing the RenderCache: bit-identical to the
/// frame Universe::galaxy_cutout serves (the Universe method is this
/// function behind the process-wide cache). Survey-scale pipelines that
/// visit each galaxy exactly once call this directly — caching a million
/// never-revisited frames would only burn memory.
image::FitsFile synthesize_galaxy_cutout(const Cluster& cluster,
                                         const GalaxyTruth& galaxy, int size,
                                         const RenderOptions& render,
                                         std::uint64_t universe_seed,
                                         double corruption_rate);

}  // namespace nvo::sim
