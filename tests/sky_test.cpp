// Tests for celestial coordinates and the FLRW cosmology.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sky/coords.hpp"
#include "sky/cosmology.hpp"

namespace nvo::sky {
namespace {

// ---------------------------------------------------------------------------
// coordinates
// ---------------------------------------------------------------------------

TEST(Coords, NormalizeWrapsRa) {
  EXPECT_DOUBLE_EQ((Equatorial{370.0, 0.0}).normalized().ra_deg, 10.0);
  EXPECT_DOUBLE_EQ((Equatorial{-10.0, 0.0}).normalized().ra_deg, 350.0);
  EXPECT_DOUBLE_EQ((Equatorial{0.0, 95.0}).normalized().dec_deg, 90.0);
}

TEST(Coords, SeparationZeroForSamePoint) {
  const Equatorial p{123.4, -56.7};
  EXPECT_NEAR(angular_separation_deg(p, p), 0.0, 1e-12);
}

TEST(Coords, SeparationSymmetric) {
  const Equatorial a{10.0, 20.0};
  const Equatorial b{11.0, 21.5};
  EXPECT_DOUBLE_EQ(angular_separation_deg(a, b), angular_separation_deg(b, a));
}

TEST(Coords, SeparationKnownValues) {
  // Pole to equator is 90 degrees.
  EXPECT_NEAR(angular_separation_deg({0.0, 90.0}, {123.0, 0.0}), 90.0, 1e-9);
  // One degree of declination at fixed RA.
  EXPECT_NEAR(angular_separation_deg({50.0, 10.0}, {50.0, 11.0}), 1.0, 1e-9);
  // RA separation shrinks with cos(dec).
  EXPECT_NEAR(angular_separation_deg({10.0, 60.0}, {12.0, 60.0}),
              2.0 * std::cos(60.0 * kDegToRad), 1e-3);
}

TEST(Coords, PositionAngleCardinal) {
  const Equatorial center{180.0, 0.0};
  EXPECT_NEAR(position_angle_deg(center, {180.0, 1.0}), 0.0, 1e-6);    // north
  EXPECT_NEAR(position_angle_deg(center, {181.0, 0.0}), 90.0, 1e-6);   // east
  EXPECT_NEAR(position_angle_deg(center, {180.0, -1.0}), 180.0, 1e-6); // south
  EXPECT_NEAR(position_angle_deg(center, {179.0, 0.0}), 270.0, 1e-6);  // west
}

TEST(Coords, ConeMembership) {
  const Equatorial center{200.0, 30.0};
  EXPECT_TRUE(within_cone(center, 0.5, {200.2, 30.1}));
  EXPECT_FALSE(within_cone(center, 0.1, {200.5, 30.5}));
}

TEST(Coords, TanProjectionRoundTrip) {
  const Equatorial center{137.3, 10.97};
  for (double dra : {-0.3, -0.05, 0.0, 0.05, 0.3}) {
    for (double ddec : {-0.3, 0.0, 0.2}) {
      const Equatorial p{center.ra_deg + dra, center.dec_deg + ddec};
      const TangentPlane tp = project_tan(center, p);
      const Equatorial back = deproject_tan(center, tp);
      EXPECT_NEAR(back.ra_deg, p.ra_deg, 1e-9);
      EXPECT_NEAR(back.dec_deg, p.dec_deg, 1e-9);
    }
  }
}

TEST(Coords, TanProjectionCenterIsOrigin) {
  const Equatorial center{10.0, -45.0};
  const TangentPlane tp = project_tan(center, center);
  EXPECT_NEAR(tp.xi_deg, 0.0, 1e-12);
  EXPECT_NEAR(tp.eta_deg, 0.0, 1e-12);
}

TEST(Coords, OffsetByArcminDistance) {
  const Equatorial center{120.0, 40.0};
  const Equatorial moved = offset_by_arcmin(center, 3.0, 4.0);
  // 3-4-5 triangle: total offset 5 arcmin.
  EXPECT_NEAR(angular_separation_deg(center, moved) * 60.0, 5.0, 1e-3);
}

TEST(Coords, OffsetNorthIncreasesDec) {
  const Equatorial center{120.0, 40.0};
  EXPECT_GT(offset_by_arcmin(center, 0.0, 1.0).dec_deg, center.dec_deg);
  EXPECT_GT(offset_by_arcmin(center, 1.0, 0.0).ra_deg, center.ra_deg);
}

TEST(Coords, SexagesimalFormat) {
  // 15 deg = 1 hour of RA.
  const std::string s = to_sexagesimal({15.0, -30.5});
  EXPECT_NE(s.find("01h00m"), std::string::npos);
  EXPECT_NE(s.find("-30d30m"), std::string::npos);
}

// ---------------------------------------------------------------------------
// cosmology
// ---------------------------------------------------------------------------

TEST(Cosmology, EfuncAtZeroIsUnity) {
  Cosmology c;
  EXPECT_NEAR(c.efunc(0.0), 1.0, 1e-12);
}

TEST(Cosmology, HubbleDistance) {
  Cosmology c;
  c.h0_km_s_mpc = 70.0;
  EXPECT_NEAR(c.hubble_distance_mpc(), 4282.7, 0.5);
}

TEST(Cosmology, EinsteinDeSitterAnalytic) {
  // om = 1, flat: D_C(z) = 2 (c/H0) (1 - 1/sqrt(1+z)) exactly.
  Cosmology c;
  c.h0_km_s_mpc = 70.0;
  c.omega_m = 1.0;
  c.flat = true;
  const double dh = c.hubble_distance_mpc();
  for (double z : {0.1, 0.5, 1.0, 3.0}) {
    const double analytic = 2.0 * dh * (1.0 - 1.0 / std::sqrt(1.0 + z));
    EXPECT_NEAR(c.comoving_distance_mpc(z), analytic, analytic * 1e-3);
  }
}

TEST(Cosmology, DistancesMonotonicInRedshift) {
  Cosmology c;
  double prev = 0.0;
  for (double z = 0.05; z < 3.0; z += 0.05) {
    const double d = c.comoving_distance_mpc(z);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(Cosmology, LuminosityExceedsAngularDiameter) {
  Cosmology c;
  for (double z : {0.1, 0.5, 1.0}) {
    EXPECT_GT(c.luminosity_distance_mpc(z), c.angular_diameter_distance_mpc(z));
    // D_L = (1+z)^2 D_A for any FLRW model.
    EXPECT_NEAR(c.luminosity_distance_mpc(z),
                (1.0 + z) * (1.0 + z) * c.angular_diameter_distance_mpc(z),
                1e-6 * c.luminosity_distance_mpc(z));
  }
}

TEST(Cosmology, KpcPerArcsecReasonable) {
  // LCDM (70, 0.3): ~6.1 kpc/arcsec at z=0.5, ~8.0 at z=1 (standard values).
  Cosmology c;
  c.h0_km_s_mpc = 70.0;
  EXPECT_NEAR(c.kpc_per_arcsec(0.5), 6.11, 0.15);
  EXPECT_NEAR(c.kpc_per_arcsec(1.0), 8.01, 0.2);
}

TEST(Cosmology, PaperDefaultsH100) {
  // The paper's VDL uses Ho=100, om=0.3, flat=1; distances scale as 70/100.
  Cosmology paper;  // defaults
  Cosmology lcdm70;
  lcdm70.h0_km_s_mpc = 70.0;
  EXPECT_NEAR(paper.comoving_distance_mpc(0.5) / lcdm70.comoving_distance_mpc(0.5),
              0.7, 1e-6);
}

TEST(Cosmology, DistanceModulusGrows) {
  Cosmology c;
  EXPECT_GT(c.distance_modulus(0.3), c.distance_modulus(0.1));
  // At z=0.1, H0=100: D_L ~ 321 Mpc -> mu = 5 log10(3.21e7) ~ 37.5.
  EXPECT_NEAR(c.distance_modulus(0.1), 37.54, 0.1);
}

TEST(Cosmology, SurfaceBrightnessDimming) {
  Cosmology c;
  EXPECT_NEAR(c.surface_brightness_dimming(1.0), 16.0, 1e-12);
  EXPECT_NEAR(c.surface_brightness_dimming(0.0), 1.0, 1e-12);
}

TEST(Cosmology, OpenUniverseCurvatureHandled) {
  Cosmology c;
  c.flat = false;
  c.omega_m = 0.3;
  c.omega_l = 0.0;  // open
  EXPECT_GT(c.omega_k(), 0.0);
  // Open-universe transverse distance exceeds the line-of-sight one.
  EXPECT_GT(c.transverse_comoving_distance_mpc(1.0), c.comoving_distance_mpc(1.0));
}

/// The one-term-at-a-time Simpson loop comoving_distance_mpc vectorized,
/// kept as its oracle.
double comoving_distance_scalar(const Cosmology& c, double z) {
  if (z <= 0.0) return 0.0;
  const int segments = 256;
  const double h = z / segments;
  double sum = 1.0 / c.efunc(0.0) + 1.0 / c.efunc(z);
  for (int i = 1; i < segments; ++i) {
    const double zi = h * i;
    sum += (i % 2 == 1 ? 4.0 : 2.0) / c.efunc(zi);
  }
  return c.hubble_distance_mpc() * sum * h / 3.0;
}

TEST(Cosmology, VectorSimpsonMatchesScalarLoopBitForBit) {
  std::vector<Cosmology> models(6);
  models[1].h0_km_s_mpc = 70.0;
  models[1].omega_m = 0.25;
  models[2].omega_m = 1.0;  // Einstein-de Sitter
  models[3].flat = false;   // open
  models[3].omega_l = 0.0;
  models[4].flat = false;  // closed
  models[4].omega_m = 0.5;
  models[4].omega_l = 0.8;
  models[5].flat = false;  // E^2 < 0 past z ~ 0.45: efunc's floor of 1e-30 bites
  models[5].omega_m = 0.1;
  models[5].omega_l = 2.0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const double z : {1e-9, 0.01, 0.1, 0.2345, 0.5, 1.0, 1.5, 3.0, 7.5}) {
      const double want = comoving_distance_scalar(models[m], z);
      const double got = models[m].comoving_distance_mpc(z);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "model " << m << ", z " << z << ": " << got << " vs " << want;
    }
  }
}

TEST(Cosmology, ZeroRedshiftIsZeroDistance) {
  Cosmology c;
  EXPECT_DOUBLE_EQ(c.comoving_distance_mpc(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.kpc_per_arcsec(0.0), 0.0);
}

}  // namespace
}  // namespace nvo::sky
