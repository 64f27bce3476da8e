// Equivalence guards for the survey-scale kernel rework: the swept
// (index-reversed, interval-based) asymmetry statistic against the scalar
// reference it replaced, and galMorph jobs on FITS bytes, run as pool tasks
// that decode into per-thread frames, against the serial decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/galmorph.hpp"
#include "core/morphology.hpp"
#include "grid/threadpool.hpp"
#include "image/fits.hpp"
#include "image/image.hpp"
#include "sim/galaxy.hpp"

namespace nvo::core {
namespace {

using grid::ThreadPool;
using image::Image;

// Direct per-pixel evaluation of the asymmetry statistic (the original
// scalar kernel, kept verbatim): the equivalence oracle for the swept
// production implementation.
double asymmetry_statistic_reference(const image::Image& img, double cx, double cy,
                                     double radius) {
  // The rotated counterpart I_180(x, y) is sampled by index arithmetic —
  // bilinear at (2cx - x, 2cy - y) — touching only aperture pixels, instead
  // of materializing a full rotated frame per call. The source row index
  // and vertical weight are fixed across a destination row, and the
  // interior fast path reads the four taps directly; both evaluate the
  // bilinear formula exactly as Image::sample_bilinear does.
  double num = 0.0;
  double den = 0.0;
  const int x0 = std::max(0, static_cast<int>(cx - radius));
  const int x1 = std::min(img.width() - 1, static_cast<int>(cx + radius));
  const int y0 = std::max(0, static_cast<int>(cy - radius));
  const int y1 = std::min(img.height() - 1, static_cast<int>(cy + radius));
  const double r2 = radius * radius;
  for (int y = y0; y <= y1; ++y) {
    const double sy = 2.0 * cy - y;
    const int iy0 = static_cast<int>(std::floor(sy));
    const double fy = sy - iy0;
    const bool row_interior = iy0 >= 0 && iy0 + 1 < img.height();
    const float* row0 = row_interior ? img.data() + static_cast<std::size_t>(iy0) * img.width() : nullptr;
    const float* row1 = row_interior ? row0 + img.width() : nullptr;
    const double dy = y - cy;
    const double dy2 = dy * dy;
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      if (dx * dx + dy2 > r2) continue;
      const float v = img.at(x, y);
      const double sx = 2.0 * cx - x;
      float rotated;
      const int ix0 = static_cast<int>(std::floor(sx));
      if (row_interior && ix0 >= 0 && ix0 + 1 < img.width()) {
        const double fx = sx - ix0;
        const double v00 = row0[ix0];
        const double v10 = row0[ix0 + 1];
        const double v01 = row1[ix0];
        const double v11 = row1[ix0 + 1];
        const double top = v01 * (1.0 - fx) + v11 * fx;
        const double bot = v00 * (1.0 - fx) + v10 * fx;
        rotated = static_cast<float>(bot * (1.0 - fy) + top * fy);
      } else {
        rotated = img.sample_bilinear(sx, sy);
      }
      num += std::fabs(v - rotated);
      den += std::fabs(v);
    }
  }
  return den > 0.0 ? num / (2.0 * den) : 0.0;
}

Image render_test_galaxy(sim::MorphType type, int size, std::uint64_t seed) {
  sim::GalaxyTruth g;
  g.id = "SOA_TEST";
  g.seed = seed;
  g.type = type;
  g.total_flux = 2e4 * (size / 64.0) * (size / 64.0);
  g.r_e_pix = 0.09 * size;
  if (type == sim::MorphType::kSpiral) {
    g.sersic_n = 1.0;
    g.arm_amplitude = 0.5;
    g.clumpiness = 0.15;
  }
  return sim::render_galaxy(g, size, {});
}

void expect_asymmetry_equivalent(const Image& img, double cx, double cy,
                                 double radius) {
  const double ref = asymmetry_statistic_reference(img, cx, cy, radius);
  const double swept = asymmetry_statistic(img, cx, cy, radius);
  // The swept kernel computes identical per-pixel terms; only the
  // accumulation order differs (four-lane sums), so agreement is to
  // summation-order precision.
  const double scale = std::max(1.0, std::abs(ref));
  EXPECT_NEAR(swept, ref, 1e-9 * scale)
      << "cx=" << cx << " cy=" << cy << " r=" << radius
      << " size=" << img.width();
}

// ---------------------------------------------------------------------------
// Swept asymmetry vs the scalar reference, across cutout sizes.
// ---------------------------------------------------------------------------

TEST(SoaKernel, SweptAsymmetryMatchesReferenceAcrossSizes) {
  for (const int size : {16, 33, 64, 128, 256}) {
    for (const auto type : {sim::MorphType::kElliptical, sim::MorphType::kSpiral}) {
      const Image img = render_test_galaxy(type, size, 0xA5A5 + size);
      const double c = (size - 1) / 2.0;
      // Integer, fractional, and off-center recentering positions — the 3x3
      // asymmetry grid probes all of these.
      expect_asymmetry_equivalent(img, c, c, 0.35 * size);
      expect_asymmetry_equivalent(img, c + 0.37, c - 0.52, 0.35 * size);
      expect_asymmetry_equivalent(img, c - 1.0, c + 1.0, 0.25 * size);
      // Radius past the frame edge: the in-circle interval clips.
      expect_asymmetry_equivalent(img, c, c, 0.80 * size);
    }
  }
}

TEST(SoaKernel, SweptAsymmetryMaskedAndEdgeCases) {
  // All-zero frame (fully masked cutout): zero numerator and denominator.
  {
    Image zero(32, 32);
    const double a = asymmetry_statistic(zero, 15.5, 15.5, 12.0);
    const double r = asymmetry_statistic_reference(zero, 15.5, 15.5, 12.0);
    EXPECT_EQ(a, r);
  }
  // Companion-masked blocks: masked pixels are zeroed in the subtracted
  // frame, leaving sharp holes the interval sweep must step across.
  {
    Image img = render_test_galaxy(sim::MorphType::kSpiral, 64, 7);
    for (int y = 10; y < 22; ++y) {
      for (int x = 40; x < 55; ++x) img.at(x, y) = 0.0f;
    }
    for (int y = 50; y < 58; ++y) {
      for (int x = 5; x < 12; ++x) img.at(x, y) = 0.0f;
    }
    expect_asymmetry_equivalent(img, 31.5, 31.5, 24.0);
    expect_asymmetry_equivalent(img, 30.8, 32.1, 24.0);
  }
  // Noise-only frame with negative pixels (below-background residuals).
  {
    Image img(48, 48);
    Rng rng(99);
    for (int y = 0; y < 48; ++y) {
      for (int x = 0; x < 48; ++x) {
        img.at(x, y) = static_cast<float>(rng.normal(0.0, 1.0));
      }
    }
    expect_asymmetry_equivalent(img, 23.5, 23.5, 18.0);
  }
  // Center near a corner: most of the circle lies outside the frame, and
  // the mirror rows of in-frame pixels are largely clipped away.
  {
    const Image img = render_test_galaxy(sim::MorphType::kElliptical, 64, 3);
    expect_asymmetry_equivalent(img, 2.3, 1.7, 20.0);
    expect_asymmetry_equivalent(img, 62.0, 62.5, 20.0);
  }
  // Single hot pixel: the statistic is dominated by one term, so any
  // indexing slip in the mirrored sweep shows up at full magnitude.
  {
    Image img(33, 33);
    img.at(20, 13) = 1000.0f;
    expect_asymmetry_equivalent(img, 16.0, 16.0, 15.0);
    expect_asymmetry_equivalent(img, 20.0, 13.0, 10.0);
  }
}

// ---------------------------------------------------------------------------
// galMorph jobs on a pool == serial measurement, bit for bit.
// ---------------------------------------------------------------------------

void expect_params_identical(const MorphologyParams& a,
                             const MorphologyParams& b) {
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.surface_brightness, b.surface_brightness);
  EXPECT_EQ(a.concentration, b.concentration);
  EXPECT_EQ(a.asymmetry, b.asymmetry);
  EXPECT_EQ(a.total_flux, b.total_flux);
  EXPECT_EQ(a.petrosian_r, b.petrosian_r);
  EXPECT_EQ(a.r20, b.r20);
  EXPECT_EQ(a.r80, b.r80);
  EXPECT_EQ(a.centroid_x, b.centroid_x);
  EXPECT_EQ(a.centroid_y, b.centroid_y);
  EXPECT_EQ(a.background_level, b.background_level);
  EXPECT_EQ(a.background_sigma, b.background_sigma);
  EXPECT_EQ(a.snr, b.snr);
}

TEST(SoaKernel, JobsOnFitsBytesMatchSerialDecodeAtEveryPoolSize) {
  // run_gal_morph_bytes decodes into a frame its thread keeps across jobs.
  // Jobs of mixed sizes run as pool tasks, each kernel serial on its worker;
  // every result must equal the serial measurement of read_fits' image, at
  // every pool size.
  std::vector<std::vector<std::uint8_t>> cutouts;
  for (int i = 0; i < 12; ++i) {
    image::FitsFile f;
    f.data = render_test_galaxy(i % 2 ? sim::MorphType::kSpiral : sim::MorphType::kElliptical,
                                i % 3 == 0 ? 128 : 64, 0xF00D + i);
    cutouts.push_back(image::write_fits(f));
  }
  GalMorphArgs args;
  args.redshift = 0.1;
  std::vector<GalMorphResult> want;
  for (const auto& bytes : cutouts) {
    const auto fits = image::read_fits(bytes);
    ASSERT_TRUE(fits.ok());
    want.push_back(run_gal_morph("g", fits.value(), args));
    ASSERT_TRUE(want.back().params.valid) << "test galaxy should measure cleanly";
  }
  for (const std::size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<GalMorphResult> got(cutouts.size());
    grid::parallel_for(pool, cutouts.size(), [&](std::size_t i) {
      got[i] = run_gal_morph_bytes("g", cutouts[i], args);
    });
    for (std::size_t i = 0; i < cutouts.size(); ++i) {
      SCOPED_TRACE(testing::Message() << threads << " threads, cutout " << i);
      expect_params_identical(got[i].params, want[i].params);
      EXPECT_EQ(got[i].petrosian_r_kpc, want[i].petrosian_r_kpc);
    }
  }
}

}  // namespace
}  // namespace nvo::core
