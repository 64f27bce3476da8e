// Tests for the synthetic universe: light profiles, galaxy rendering,
// cluster generation (Dressler mixing), X-ray maps, and the campaign layout.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/galaxy.hpp"
#include "sim/profiles.hpp"
#include "sim/render_cache.hpp"
#include "sim/universe.hpp"
#include "sim/xray.hpp"
#include "sky/coords.hpp"

namespace nvo::sim {
namespace {

// ---------------------------------------------------------------------------
// profiles
// ---------------------------------------------------------------------------

TEST(Profiles, SersicBnKnownValues) {
  // b_1 ~ 1.678, b_4 ~ 7.669 (standard values).
  EXPECT_NEAR(sersic_bn(1.0), 1.678, 0.01);
  EXPECT_NEAR(sersic_bn(4.0), 7.669, 0.01);
}

TEST(Profiles, HalfLightRadiusEnclosesHalf) {
  // Numerically integrate the profile: flux inside r_e must be ~50%.
  for (double n : {1.0, 2.0, 4.0}) {
    const double r_e = 10.0;
    double inside = 0.0;
    double total = 0.0;
    for (double r = 0.05; r < 40.0 * r_e; r += 0.1) {
      const double ring = 2.0 * 3.14159265358979 * r * sersic_profile(r, r_e, n) * 0.1;
      total += ring;
      if (r <= r_e) inside += ring;
    }
    EXPECT_NEAR(inside / total, 0.5, 0.02) << "n=" << n;
  }
}

TEST(Profiles, TotalFluxMatchesNumericIntegral) {
  for (double n : {1.0, 4.0}) {
    const double r_e = 5.0;
    double numeric = 0.0;
    for (double r = 0.01; r < 60.0 * r_e; r += 0.02) {
      numeric += 2.0 * 3.14159265358979 * r * sersic_profile(r, r_e, n) * 0.02;
    }
    EXPECT_NEAR(sersic_total_flux(r_e, n) / numeric, 1.0, 0.01) << "n=" << n;
  }
}

TEST(Profiles, ProfileMonotonicallyDecreasing) {
  double prev = sersic_profile(0.0, 4.0, 2.0);
  for (double r = 0.5; r < 30.0; r += 0.5) {
    const double v = sersic_profile(r, 4.0, 2.0);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Profiles, EllipticalRadiusCircularWhenQ1) {
  EXPECT_NEAR(elliptical_radius(3.0, 4.0, 1.0, 0.7), 5.0, 1e-9);
}

TEST(Profiles, EllipticalRadiusStretchesMinorAxis) {
  // q = 0.5: a point on the minor axis (rotated frame) doubles in radius.
  const double r_minor = elliptical_radius(0.0, 1.0, 0.5, 0.0);
  const double r_major = elliptical_radius(1.0, 0.0, 0.5, 0.0);
  EXPECT_NEAR(r_minor, 2.0, 1e-9);
  EXPECT_NEAR(r_major, 1.0, 1e-9);
}

TEST(Profiles, SpiralModulationBounds) {
  for (double theta = 0.0; theta < 6.28; theta += 0.1) {
    const double m =
        spiral_modulation(3.0 * std::cos(theta), 3.0 * std::sin(theta), 0.5, 0.3, 2.0);
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0 + 1.6 * 0.5 + 1e-9);
  }
  EXPECT_DOUBLE_EQ(spiral_modulation(1.0, 1.0, 0.0, 0.3, 2.0), 1.0);
}

TEST(Profiles, SpiralModulationBreaksPointSymmetry) {
  // The m=1 term must make f(x, y) != f(-x, -y) somewhere.
  double max_diff = 0.0;
  for (double theta = 0.0; theta < 6.28; theta += 0.05) {
    const double x = 3.0 * std::cos(theta);
    const double y = 3.0 * std::sin(theta);
    max_diff = std::max(max_diff,
                        std::fabs(spiral_modulation(x, y, 0.5, 0.3, 2.0) -
                                  spiral_modulation(-x, -y, 0.5, 0.3, 2.0)));
  }
  EXPECT_GT(max_diff, 0.2);
}

// ---------------------------------------------------------------------------
// galaxy rendering
// ---------------------------------------------------------------------------

GalaxyTruth elliptical_truth() {
  GalaxyTruth g;
  g.id = "TEST_E";
  g.seed = hash64(g.id);
  g.type = MorphType::kElliptical;
  g.total_flux = 5e4;
  g.r_e_pix = 4.0;
  g.sersic_n = 4.0;
  g.axis_ratio = 0.85;
  return g;
}

TEST(Galaxy, RenderedFluxApproximatesTruth) {
  RenderOptions opts;
  opts.poisson_noise = false;
  opts.read_noise = 0.0;
  opts.sky_level = 0.0;
  GalaxyTruth g = elliptical_truth();
  const image::Image img = render_galaxy(g, 128, opts);
  // The n=4 profile keeps several percent of its light beyond any finite
  // frame; the 128-pixel frame captures the bulk of it.
  EXPECT_NEAR(img.total_flux(), g.total_flux, g.total_flux * 0.15);
}

TEST(Galaxy, RenderDeterministicPerSeed) {
  RenderOptions opts;
  const GalaxyTruth g = elliptical_truth();
  const image::Image a = render_galaxy(g, 64, opts);
  const image::Image b = render_galaxy(g, 64, opts);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_FLOAT_EQ(a.pixels()[i], b.pixels()[i]);
  }
}

TEST(Galaxy, CentralPixelIsBrightest) {
  RenderOptions opts;
  opts.poisson_noise = false;
  opts.read_noise = 0.0;
  opts.sky_level = 0.0;
  const image::Image img = render_galaxy(elliptical_truth(), 65, opts);
  const float center = img.at(32, 32);
  EXPECT_GT(center, img.at(10, 10));
  EXPECT_GT(center, img.at(50, 50));
}

TEST(Galaxy, SpiralIsAsymmetricUnderRotation) {
  RenderOptions opts;
  opts.poisson_noise = false;
  opts.read_noise = 0.0;
  opts.sky_level = 0.0;
  GalaxyTruth sp = elliptical_truth();
  sp.id = "TEST_SP";
  sp.seed = hash64(sp.id);
  sp.type = MorphType::kSpiral;
  sp.sersic_n = 1.0;
  sp.arm_amplitude = 0.6;
  sp.clumpiness = 0.15;

  const image::Image e_img = render_galaxy(elliptical_truth(), 65, opts);
  const image::Image s_img = render_galaxy(sp, 65, opts);
  auto rotation_residual = [](const image::Image& img) {
    const image::Image rot = img.rotate180_about(32.0, 32.0);
    double num = 0.0, den = 0.0;
    for (int y = 8; y < 57; ++y) {
      for (int x = 8; x < 57; ++x) {
        num += std::fabs(img.at(x, y) - rot.at(x, y));
        den += std::fabs(img.at(x, y));
      }
    }
    return num / (2.0 * den);
  };
  EXPECT_GT(rotation_residual(s_img), 3.0 * rotation_residual(e_img));
}

TEST(Galaxy, NoiseRaisesBackground) {
  RenderOptions opts;
  opts.sky_level = 100.0;
  image::Image img(32, 32, 0.0f);
  Rng rng(1);
  apply_noise(img, opts, rng);
  EXPECT_NEAR(img.mean_value(), 100.0, 2.0);
}

TEST(Galaxy, CorruptionDetected) {
  image::Image img(64, 64, 50.0f);
  EXPECT_FALSE(looks_corrupted(img));
  Rng rng(2);
  corrupt_image(img, rng);
  EXPECT_TRUE(looks_corrupted(img));
}

// ---------------------------------------------------------------------------
// cluster generation
// ---------------------------------------------------------------------------

ClusterSpec test_spec(int n = 400) {
  ClusterSpec spec;
  spec.name = "TESTCL";
  spec.center = {180.0, 0.0};
  spec.redshift = 0.15;
  spec.n_galaxies = n;
  spec.seed = 77;
  return spec;
}

TEST(Cluster, GeneratesRequestedCount) {
  const Cluster c = generate_cluster(test_spec(123), sky::Cosmology{});
  EXPECT_EQ(c.galaxies.size(), 123u);
}

TEST(Cluster, DeterministicInSeed) {
  const Cluster a = generate_cluster(test_spec(), sky::Cosmology{});
  const Cluster b = generate_cluster(test_spec(), sky::Cosmology{});
  ASSERT_EQ(a.galaxies.size(), b.galaxies.size());
  for (std::size_t i = 0; i < a.galaxies.size(); ++i) {
    EXPECT_EQ(a.galaxies[i].id, b.galaxies[i].id);
    EXPECT_DOUBLE_EQ(a.galaxies[i].position.ra_deg, b.galaxies[i].position.ra_deg);
    EXPECT_EQ(a.galaxies[i].type, b.galaxies[i].type);
  }
}

TEST(Cluster, MembersInsideExtent) {
  const ClusterSpec spec = test_spec();
  const Cluster c = generate_cluster(spec, sky::Cosmology{});
  for (const GalaxyTruth& g : c.galaxies) {
    EXPECT_LE(g.radius_arcmin, spec.extent_arcmin + 1e-6);
    EXPECT_NEAR(sky::angular_separation_deg(spec.center, g.position) * 60.0,
                g.radius_arcmin, 0.01);
  }
}

TEST(Cluster, EarlyTypeProbabilityDecreasesOutward) {
  const ClusterSpec spec = test_spec();
  double prev = early_type_probability(spec, 0.0);
  EXPECT_NEAR(prev, spec.elliptical_fraction_core, 1e-9);
  for (double r = 1.0; r <= spec.extent_arcmin; r += 1.0) {
    const double p = early_type_probability(spec, r);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
  EXPECT_NEAR(early_type_probability(spec, spec.extent_arcmin),
              spec.elliptical_fraction_edge, 1e-9);
}

TEST(Cluster, DresslerMixingRealizedInPopulation) {
  const Cluster c = generate_cluster(test_spec(800), sky::Cosmology{});
  int early_in = 0, total_in = 0, early_out = 0, total_out = 0;
  for (const GalaxyTruth& g : c.galaxies) {
    const bool early = g.type == MorphType::kElliptical || g.type == MorphType::kS0;
    if (g.radius_arcmin < 2.0) {
      ++total_in;
      early_in += early;
    } else if (g.radius_arcmin > 6.0) {
      ++total_out;
      early_out += early;
    }
  }
  ASSERT_GT(total_in, 20);
  ASSERT_GT(total_out, 20);
  EXPECT_GT(static_cast<double>(early_in) / total_in,
            static_cast<double>(early_out) / total_out + 0.15);
}

TEST(Cluster, TypeParametersFollowConvention) {
  const Cluster c = generate_cluster(test_spec(300), sky::Cosmology{});
  for (const GalaxyTruth& g : c.galaxies) {
    switch (g.type) {
      case MorphType::kElliptical:
        EXPECT_GE(g.sersic_n, 3.0);
        EXPECT_DOUBLE_EQ(g.arm_amplitude, 0.0);
        break;
      case MorphType::kSpiral:
        EXPECT_LE(g.sersic_n, 1.5);
        EXPECT_GT(g.arm_amplitude, 0.0);
        break;
      default:
        break;
    }
  }
}

TEST(Cluster, HigherRedshiftSmallerApparentSize) {
  ClusterSpec near_spec = test_spec(200);
  near_spec.redshift = 0.05;
  ClusterSpec far_spec = test_spec(200);
  far_spec.redshift = 0.4;
  const sky::Cosmology cosmo;
  const Cluster near_c = generate_cluster(near_spec, cosmo);
  const Cluster far_c = generate_cluster(far_spec, cosmo);
  auto mean_re = [](const Cluster& c) {
    double sum = 0.0;
    for (const GalaxyTruth& g : c.galaxies) sum += g.r_e_pix;
    return sum / static_cast<double>(c.galaxies.size());
  };
  EXPECT_GT(mean_re(near_c), mean_re(far_c));
}

// ---------------------------------------------------------------------------
// X-ray
// ---------------------------------------------------------------------------

TEST(Xray, BetaProfilePeaksAtCenter) {
  XrayOptions opts;
  EXPECT_DOUBLE_EQ(xray_surface_brightness(0.0, opts), opts.peak_counts);
  EXPECT_LT(xray_surface_brightness(5.0, opts), xray_surface_brightness(1.0, opts));
}

TEST(Xray, BetaSlopeAsymptotic) {
  // At r >> rc, S ~ r^(1-6beta) = r^-3 for beta=2/3.
  XrayOptions opts;
  opts.poisson = false;
  const double s10 = xray_surface_brightness(10.0, opts);
  const double s20 = xray_surface_brightness(20.0, opts);
  EXPECT_NEAR(s10 / s20, 8.0, 0.8);
}

TEST(Xray, MapCenterBrighterThanEdge) {
  const Cluster c = generate_cluster(test_spec(10), sky::Cosmology{});
  XrayOptions opts;
  opts.poisson = false;
  const image::Image map = render_xray_map(c, 64, 8.0, opts);
  EXPECT_GT(map.at(32, 32), map.at(2, 2) * 3.0);
}

// ---------------------------------------------------------------------------
// universe / campaign
// ---------------------------------------------------------------------------

TEST(Universe, PaperCampaignShape) {
  const Universe u = Universe::make_paper_campaign();
  ASSERT_EQ(u.clusters().size(), 8u);
  std::size_t total = 0;
  std::size_t min_n = SIZE_MAX, max_n = 0;
  for (const Cluster& c : u.clusters()) {
    total += c.galaxies.size();
    min_n = std::min(min_n, c.galaxies.size());
    max_n = std::max(max_n, c.galaxies.size());
  }
  EXPECT_EQ(total, 1525u);  // the paper's image count
  EXPECT_EQ(min_n, 37u);
  EXPECT_EQ(max_n, 561u);
}

TEST(Universe, PopulationScaleShrinks) {
  const Universe u = Universe::make_paper_campaign(1, 0.1);
  for (const Cluster& c : u.clusters()) {
    EXPECT_LE(c.galaxies.size(), 57u);
    EXPECT_GE(c.galaxies.size(), 8u);
  }
}

TEST(Universe, FindCluster) {
  const Universe u = Universe::make_paper_campaign();
  EXPECT_NE(u.find_cluster("A2390"), nullptr);
  EXPECT_EQ(u.find_cluster("NOPE"), nullptr);
}

TEST(Universe, OpticalFieldHasWcsAndLight) {
  const Universe u = Universe::make_paper_campaign(1, 0.05);
  const Cluster& c = u.clusters().front();
  const image::FitsFile field = u.optical_field(c, 128, 4.0);
  EXPECT_EQ(field.data.width(), 128);
  EXPECT_TRUE(field.header.has("CRVAL1"));
  EXPECT_EQ(field.header.get_string("OBJECT").value(), c.name());
  // Sky level dominates empty pixels; galaxies push the max well above it.
  EXPECT_GT(field.data.max_value(), 3.0f * u.config().render.sky_level);
}

TEST(Universe, CutoutCenteredOnGalaxy) {
  const Universe u = Universe::make_paper_campaign(1, 0.05);
  const Cluster& c = u.clusters().front();
  // Pick an uncorrupted galaxy.
  const GalaxyTruth* g = nullptr;
  for (const GalaxyTruth& cand : c.galaxies) {
    if (!u.cutout_is_corrupted(cand)) {
      g = &cand;
      break;
    }
  }
  ASSERT_NE(g, nullptr);
  const image::FitsFile cut = u.galaxy_cutout(c, *g, 64);
  EXPECT_EQ(cut.data.width(), 64);
  // Central 9x9 flux beats a corner 9x9 (galaxy centered).
  double center_flux = 0.0, corner_flux = 0.0;
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 9; ++x) {
      center_flux += cut.data.at(28 + x, 28 + y);
      corner_flux += cut.data.at(x, y);
    }
  }
  EXPECT_GT(center_flux, corner_flux * 1.2);
}

TEST(Universe, SameSeedUniversesShareRenderCacheEntries) {
  // Render keys are content hashes (a per-cluster population key computed
  // once in add_cluster), so a second universe built from the same seed —
  // one per Campaign — is served entirely from the first one's frames.
  const auto request_all = [](const Universe& u) {
    std::vector<image::FitsFile> frames;
    for (const Cluster& c : u.clusters()) {
      frames.push_back(u.optical_field(c, 128, 4.0));
      for (const GalaxyTruth& g : c.galaxies) frames.push_back(u.galaxy_cutout(c, g, 64));
    }
    return frames;
  };
  const Universe first = Universe::make_paper_campaign(7301, 0.05);
  const std::vector<image::FitsFile> cold = request_all(first);
  const RenderCache::Stats before = RenderCache::instance().stats();
  const Universe second = Universe::make_paper_campaign(7301, 0.05);
  const std::vector<image::FitsFile> warm = request_all(second);
  const RenderCache::Stats after = RenderCache::instance().stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + warm.size());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].data.pixels(), cold[i].data.pixels()) << "frame " << i;
  }
}

TEST(Universe, CutoutThroughAModifiedClusterCopyGetsItsOwnFrame) {
  // The precomputed population key stands only for the clusters the
  // universe owns; a caller's copy is hashed in full, so changing one
  // neighbour's flux in the copy must not hit the owned cluster's frame.
  const Universe u = Universe::make_paper_campaign(7302, 0.2);
  const Cluster& owned = u.clusters().front();
  // The closest pair of members: the neighbour's light lands in the frame.
  std::size_t target = 0, neighbour = 1;
  double best = 1e9;
  for (std::size_t i = 0; i < owned.galaxies.size(); ++i) {
    for (std::size_t j = 0; j < owned.galaxies.size(); ++j) {
      if (i == j) continue;
      const double sep = sky::angular_separation_deg(owned.galaxies[i].position,
                                                     owned.galaxies[j].position);
      if (sep < best) {
        best = sep;
        target = i;
        neighbour = j;
      }
    }
  }
  ASSERT_LT(best * 60.0, 0.5);  // arcmin; the 64 px frame spans ~1.07'
  const image::FitsFile owned_frame = u.galaxy_cutout(owned, owned.galaxies[target], 64);

  // An unmodified copy has the same content, so it shares the owned frame.
  const Cluster same = owned;
  const RenderCache::Stats before_same = RenderCache::instance().stats();
  const image::FitsFile same_frame = u.galaxy_cutout(same, same.galaxies[target], 64);
  EXPECT_EQ(RenderCache::instance().stats().misses, before_same.misses);
  EXPECT_EQ(same_frame.data.pixels(), owned_frame.data.pixels());

  Cluster brighter = owned;
  brighter.galaxies[neighbour].total_flux *= 10.0;
  const RenderCache::Stats before = RenderCache::instance().stats();
  const image::FitsFile frame = u.galaxy_cutout(brighter, brighter.galaxies[target], 64);
  EXPECT_EQ(RenderCache::instance().stats().misses, before.misses + 1);
  EXPECT_NE(frame.data.pixels(), owned_frame.data.pixels());
  EXPECT_GT(frame.data.total_flux(), owned_frame.data.total_flux());
}

TEST(Universe, CorruptionRateApproximatelyHonored) {
  sim::UniverseConfig cfg;
  cfg.corruption_rate = 0.25;
  Universe u(cfg);
  ClusterSpec spec = test_spec(400);
  u.add_cluster(spec);
  int corrupted = 0;
  for (const GalaxyTruth& g : u.clusters().front().galaxies) {
    if (u.cutout_is_corrupted(g)) ++corrupted;
  }
  EXPECT_NEAR(corrupted / 400.0, 0.25, 0.08);
}

TEST(Universe, CatalogsShareIdsAndDifferInColumns) {
  const Universe u = Universe::make_paper_campaign(1, 0.05);
  const Cluster& c = u.clusters().front();
  const votable::Table ned = u.ned_catalog(c);
  const votable::Table cnoc = u.cnoc_catalog(c);
  EXPECT_EQ(ned.num_rows(), c.galaxies.size());
  EXPECT_EQ(cnoc.num_rows(), c.galaxies.size());
  EXPECT_TRUE(ned.column_index("mag").has_value());
  EXPECT_FALSE(ned.column_index("g_r").has_value());
  EXPECT_TRUE(cnoc.column_index("g_r").has_value());
  EXPECT_EQ(ned.cell(0, "id").as_string().value(),
            cnoc.cell(0, "id").as_string().value());
}

TEST(Universe, RedSequenceInCnocColors) {
  const Universe u = Universe::make_paper_campaign(1, 0.2);
  const Cluster& c = u.clusters().front();
  const votable::Table cnoc = u.cnoc_catalog(c);
  const votable::Table truth = u.truth_catalog(c);
  double early_sum = 0.0, late_sum = 0.0;
  int early_n = 0, late_n = 0;
  for (std::size_t i = 0; i < cnoc.num_rows(); ++i) {
    const std::string type = truth.cell(i, "type").as_string().value();
    const double color = cnoc.cell(i, "g_r").as_double().value();
    if (type == "E" || type == "S0") {
      early_sum += color;
      ++early_n;
    } else {
      late_sum += color;
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 5);
  ASSERT_GT(late_n, 5);
  EXPECT_GT(early_sum / early_n, late_sum / late_n + 0.15);
}

}  // namespace
}  // namespace nvo::sim
