// Regression guard for the optimized morphology kernel. The golden values
// below were captured from the kernel BEFORE the curve-of-growth /
// allocation-free rewrite (seed revision), on fixed-seed synthetic cutouts.
// The optimized kernel must keep reproducing them: any drift beyond
// floating-point summation-order noise means an optimization changed the
// science, not just the speed.
//
// Alongside the golden rows: a digest of every output bit on survey cutouts,
// pinned across commits; the vector-register lane loops against the
// one-element-at-a-time loops they replaced; companion masking against its
// breadth-first oracle (segmentation_oracle.hpp), byte for byte; and
// property tests pinning the CurveOfGrowth object to the direct scan-based
// photometry it replaced — exact flux/annulus agreement, monotone
// enclosed-radius behaviour, and bisection agreement; and the lazily
// extended curve against the eager build it replaced (cog_oracle.hpp),
// bit for bit, whatever the order of the queries and however near an
// integer a query's cut falls; and the bounded asymmetry search against the
// exhaustive one it replaced (asymmetry_oracle.hpp), value and center bit
// for bit, ties included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/survey.hpp"
#include "asymmetry_oracle.hpp"
#include "cog_oracle.hpp"
#include "common/rng.hpp"
#include "core/galmorph.hpp"
#include "core/morphology.hpp"
#include "core/photometry.hpp"
#include "core/segmentation.hpp"
#include "segmentation_oracle.hpp"
#include "sim/cluster.hpp"
#include "sim/galaxy.hpp"
#include "sim/survey.hpp"
#include "sim/universe.hpp"

namespace nvo::core {
namespace {

using sim::GalaxyTruth;
using sim::MorphType;
using sim::RenderOptions;

// ---------------------------------------------------------------------------
// Golden-value regression
// ---------------------------------------------------------------------------

struct GoldenRow {
  const char* name;
  MorphType type;
  int size;
  bool valid;
  double concentration;
  double asymmetry;
  double surface_brightness;
  double petrosian_r;
  double r20;
  double r80;
  double total_flux;
  double snr;
};

// Captured at the seed revision with the construction in render_golden()
// below (printf "%.17g"). Do not regenerate from a current build when a test
// fails — that would defeat the guard; investigate the kernel change instead.
const GoldenRow kGolden[] = {
    {"GOLD_E0", MorphType::kElliptical, 64, true, 2.7218578495891683,
     0.19500266388916007, -5.1315351070664859, 7, 1.5714111328125,
     5.5037841796875, 39096.917121171951, 477.56443755166487},
    {"GOLD_S0", MorphType::kS0, 64, true, 2.3034326477499105,
     0.32911162626309221, -5.4553884473805461, 6, 1.65673828125,
     4.78564453125, 38707.06756234169, 569.2296313198965},
    {"GOLD_SP", MorphType::kSpiral, 64, true, 1.8685668076784898,
     0.27010342936095894, -5.0394471191208643, 7.5, 2.41973876953125,
     5.72113037109375, 41231.93962097168, 493.87820797317335},
    {"GOLD_IRR", MorphType::kIrregular, 64, true, 2.3333517552153404,
     0.32530220241032881, -4.7323558843028861, 10, 2.669677734375,
     7.818603515625, 55242.680647134781, 467.7094791747603},
    {"GOLD_E_BIG", MorphType::kElliptical, 96, true, 2.3616779608442284,
     0.27252415961658727, -5.347473725084253, 6, 1.60400390625,
     4.75927734375, 35044.864215254784, 492.83641749312807},
    {"GOLD_SP_BIG", MorphType::kSpiral, 96, true, 2.1938230862616748,
     0.27075866116476532, -4.6230996598989558, 10, 2.801513671875,
     7.694091796875, 49954.228351593018, 437.72687593266119},
};

image::Image render_golden(const GoldenRow& row) {
  GalaxyTruth g;
  g.id = row.name;
  g.seed = hash64(g.id);
  g.type = row.type;
  g.total_flux = 6e4;
  g.r_e_pix = 4.0;
  if (row.type == MorphType::kSpiral) {
    g.sersic_n = 1.0;
    g.arm_amplitude = 0.5;
    g.clumpiness = 0.1;
    g.r_e_pix = 6.0;
  } else if (row.type == MorphType::kIrregular) {
    g.sersic_n = 1.0;
    g.clumpiness = 0.5;
    g.r_e_pix = 5.0;
  } else if (row.type == MorphType::kS0) {
    g.sersic_n = 2.5;
  }
  RenderOptions opts;  // defaults: noisy render, deterministic per seed
  return sim::render_galaxy(g, row.size, opts);
}

// Tolerance: 1e-6 relative (absolute below magnitude 1). The optimized
// kernel changes only floating-point summation order, so the observed drift
// is ~1e-12; the slack covers future compilers/flags, not science changes.
void expect_golden(double value, double golden, const char* what,
                   const char* galaxy) {
  EXPECT_NEAR(value, golden, 1e-6 * std::max(1.0, std::fabs(golden)))
      << galaxy << " " << what;
}

TEST(KernelGolden, ReproducesSeedKernelValues) {
  for (const GoldenRow& row : kGolden) {
    const image::Image img = render_golden(row);
    const MorphologyParams p = measure_morphology(img);
    ASSERT_EQ(p.valid, row.valid) << row.name << ": " << p.failure_reason;
    expect_golden(p.concentration, row.concentration, "concentration", row.name);
    expect_golden(p.asymmetry, row.asymmetry, "asymmetry", row.name);
    expect_golden(p.surface_brightness, row.surface_brightness,
                  "surface_brightness", row.name);
    expect_golden(p.petrosian_r, row.petrosian_r, "petrosian_r", row.name);
    expect_golden(p.r20, row.r20, "r20", row.name);
    expect_golden(p.r80, row.r80, "r80", row.name);
    expect_golden(p.total_flux, row.total_flux, "total_flux", row.name);
    expect_golden(p.snr, row.snr, "snr", row.name);
  }
}

TEST(KernelGolden, WorkspaceOverloadMatchesDefault) {
  // The workspace-reusing entry point is the one the grid batch path calls;
  // it must be indistinguishable from the plain overload.
  MorphologyWorkspace workspace;
  for (const GoldenRow& row : kGolden) {
    const image::Image img = render_golden(row);
    const MorphologyParams a = measure_morphology(img);
    const MorphologyParams b = measure_morphology(img, {}, workspace);
    ASSERT_EQ(a.valid, b.valid) << row.name;
    EXPECT_EQ(a.concentration, b.concentration) << row.name;
    EXPECT_EQ(a.asymmetry, b.asymmetry) << row.name;
    EXPECT_EQ(a.surface_brightness, b.surface_brightness) << row.name;
    EXPECT_EQ(a.petrosian_r, b.petrosian_r) << row.name;
    EXPECT_EQ(a.total_flux, b.total_flux) << row.name;
  }
}

// ---------------------------------------------------------------------------
// Cross-commit byte pin
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a, spelled out here so the pin depends on nothing in src/.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
};

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

/// Every GalMorphResult field as text, doubles as their IEEE-754 bit
/// patterns in hex, so any bit that moves changes the digest.
std::string result_text(const GalMorphResult& r) {
  const MorphologyParams& p = r.params;
  std::string out = r.galaxy_id + "|" + (p.valid ? "1" : "0") + "|" + p.failure_reason;
  for (const double v :
       {p.surface_brightness, p.concentration, p.asymmetry, p.total_flux,
        p.petrosian_r, p.r20, p.r80, p.centroid_x, p.centroid_y,
        p.background_level, p.background_sigma, p.snr, r.redshift,
        r.kpc_per_arcsec, r.petrosian_r_kpc}) {
    out += "|" + hex_bits(v);
  }
  return out + "\n";
}

/// Runs the galMorph job on the first `count` survey cutouts (seed 20031115,
/// 4% corrupted, as the survey serves them) and digests every result.
/// `valid` counts the valid rows so the test can see both kinds are covered.
std::uint64_t survey_digest(int size, std::size_t count, std::size_t& valid) {
  const analysis::SurveyConfig cfg;
  const auto specs = sim::survey_cluster_specs({cfg.seed, 5000});
  Fnv1a digest;
  std::size_t done = 0;
  valid = 0;
  for (const sim::ClusterSpec& spec : specs) {
    const sim::Cluster cluster = sim::generate_cluster(spec, cfg.args.cosmology());
    for (const sim::GalaxyTruth& g : cluster.galaxies) {
      if (done == count) return digest.h;
      const image::FitsFile fits = sim::synthesize_galaxy_cutout(
          cluster, g, size, cfg.render, cfg.seed, cfg.corruption_rate);
      GalMorphArgs args = cfg.args;
      args.redshift = g.redshift;
      const GalMorphResult r = run_gal_morph_bytes(g.id, image::write_fits(fits), args);
      digest.add(result_text(r));
      valid += r.params.valid ? 1 : 0;
      ++done;
    }
  }
  return digest.h;
}

// Captured at the commit before the run-labeler and SIMD-lane kernel rework
// (5f9137e). Unlike the 1e-6 golden rows above, these pin every output bit
// across commits: a kernel change that moves any bit of any field on any of
// these cutouts fails here. Never regenerate them from a current build.
constexpr std::uint64_t kSurveyDigest64 = 0xacd175f8dc769567ull;
constexpr std::uint64_t kSurveyDigest128 = 0x7e34d4ec3faa9e78ull;
constexpr std::uint64_t kSurveyCatalogDigest = 0xc33530b84e568e31ull;

TEST(KernelGolden, SurveyOutputsMatchPinnedDigest) {
  std::size_t valid = 0;
  const std::uint64_t d64 = survey_digest(64, 200, valid);
  EXPECT_GT(valid, 150u);
  EXPECT_LT(valid, 200u);  // the corrupted cutouts' invalid rows are pinned too
  EXPECT_EQ(d64, kSurveyDigest64) << "64 px digest 0x" << std::hex << d64;
  const std::uint64_t d128 = survey_digest(128, 200, valid);
  EXPECT_GT(valid, 150u);
  EXPECT_EQ(d128, kSurveyDigest128) << "128 px digest 0x" << std::hex << d128;

  analysis::SurveyConfig cfg;
  cfg.target_galaxies = 300;
  const auto report = analysis::Survey(cfg).run_in_memory();
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  Fnv1a catalog;
  catalog.add(report->catalog_xml);
  EXPECT_EQ(report->galaxies, 273u);
  EXPECT_EQ(catalog.h, kSurveyCatalogDigest) << "catalog digest 0x" << std::hex << catalog.h;
}

// ---------------------------------------------------------------------------
// Companion masking vs the breadth-first oracle
// ---------------------------------------------------------------------------

struct MaskParams {
  double sigma = 1.0;
  double threshold_sigma = 2.0;
  int dilate = 2;
  double deblend_sigma = 10.0;
};

/// Masks `frame` with the row-run labeler, through a `scratch` that carries
/// state over from earlier frames of other sizes, and with the oracle; the
/// two frames must be byte-identical. Returns the row-run labeler's frame.
image::Image expect_same_masking(const image::Image& frame, SegmentationScratch& scratch,
                                 const MaskParams& p, const std::string& what) {
  image::Image want = frame;
  image::Image got = frame;
  oracle::mask_companions(want, p.sigma, p.threshold_sigma, p.dilate, p.deblend_sigma);
  mask_companions_inplace(got, p.sigma, scratch, p.threshold_sigma, p.dilate,
                          p.deblend_sigma);
  std::size_t first_diff = 0;
  while (first_diff < frame.size() &&
         std::memcmp(want.data() + first_diff, got.data() + first_diff, sizeof(float)) == 0) {
    ++first_diff;
  }
  EXPECT_EQ(first_diff, frame.size())
      << what << " (" << frame.width() << "x" << frame.height() << "): first differing pixel ("
      << first_diff % frame.width() << ", " << first_diff / frame.width() << ")";
  return got;
}

/// How many pixels masking zeroed, so a case can check it exercises something.
std::size_t masked_pixels(const image::Image& before, const image::Image& after) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    n += std::memcmp(before.data() + i, after.data() + i, sizeof(float)) != 0 ? 1 : 0;
  }
  return n;
}

/// A frame drawn as text, top row first: '.' is 0, 'a' is 5 (above the
/// detection threshold of 2 at sigma 1, below the deblend threshold of 10),
/// and a digit d is 10 + 10 * d, a deblend core pixel.
image::Image picture(std::initializer_list<const char*> rows) {
  const int height = static_cast<int>(rows.size());
  const int width = static_cast<int>(std::strlen(*rows.begin()));
  image::Image img(width, height, 0.0f);
  int y = 0;
  for (const char* row : rows) {
    for (int x = 0; x < width; ++x) {
      const char c = row[x];
      img.at(x, y) = c == '.' ? 0.0f : c == 'a' ? 5.0f : 10.0f + 10.0f * (c - '0');
    }
    ++y;
  }
  return img;
}

/// Noise plus a handful of Gaussian blobs, some bright enough for deblend
/// cores: many components of every shape, touching edges and each other.
image::Image random_field(Rng& rng, int width, int height) {
  image::Image img(width, height, 0.0f);
  for (float& v : img.pixels()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const int blobs = static_cast<int>(rng.uniform_index(6));
  for (int b = 0; b < blobs; ++b) {
    const double bx = rng.uniform(-2.0, width + 2.0);
    const double by = rng.uniform(-2.0, height + 2.0);
    const double amp = rng.uniform(3.0, 60.0);
    const double r2 = std::pow(rng.uniform(0.7, 6.0), 2);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        const double d2 = (x - bx) * (x - bx) + (y - by) * (y - by);
        img.at(x, y) += static_cast<float>(amp * std::exp(-d2 / (2.0 * r2)));
      }
    }
  }
  return img;
}

TEST(SegmentationDifferential, SurveyCutoutsMatchOracle) {
  SegmentationScratch scratch;
  for (const std::uint64_t seed : {3ull, 17ull}) {
    for (const int size : {64, 128}) {
      const auto specs = sim::survey_cluster_specs({seed, 2000});
      sim::RenderOptions render;
      render.supersample = 1;
      std::size_t frames = 0;
      std::size_t masked = 0;
      for (const sim::ClusterSpec& spec : specs) {
        if (frames >= 60) break;
        const sim::Cluster cluster = sim::generate_cluster(spec, GalMorphArgs{}.cosmology());
        for (const sim::GalaxyTruth& g : cluster.galaxies) {
          if (frames >= 60) break;
          const image::Image raw =
              sim::synthesize_galaxy_cutout(cluster, g, size, render, seed, 0.0).data;
          const BackgroundEstimate bg = estimate_background(raw);
          const image::Image frame = subtract_background(raw, bg);
          MaskParams p;
          p.sigma = bg.sigma;
          masked += masked_pixels(frame, expect_same_masking(frame, scratch, p, g.id)) > 0;
          // A lower detection threshold grows and merges the components.
          p.threshold_sigma = 1.0;
          expect_same_masking(frame, scratch, p, g.id + " at 1 sigma");
          ++frames;
        }
      }
      EXPECT_EQ(frames, 60u);
      EXPECT_GT(masked, frames / 2) << "seed " << seed << ", " << size << " px";
    }
  }
}

TEST(SegmentationDifferential, UniformFramesMatchOracle) {
  SegmentationScratch scratch;
  // All below: nothing is detected, so nothing changes.
  // All above: one component, the central one; all core: one core.
  for (const float level : {1.5f, 5.0f, 50.0f}) {
    const image::Image frame(64, 64, level);
    EXPECT_EQ(masked_pixels(frame, expect_same_masking(frame, scratch, {}, "uniform")), 0u)
        << level;
  }
}

TEST(SegmentationDifferential, CheckerboardsAndStripesMatchOracle) {
  SegmentationScratch scratch;
  for (const auto& [w, h] : {std::pair{64, 64}, std::pair{65, 64}, std::pair{17, 33},
                             std::pair{128, 128}}) {
    // Checkerboard: n/2 single-pixel components, diagonal-adjacent only.
    image::Image board(w, h, 0.0f);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if ((x + y) % 2 == 0) board.at(x, y) = 5.0f + 0.01f * static_cast<float>((x * 7 + y * 3) % 11);
      }
    }
    EXPECT_GT(masked_pixels(board, expect_same_masking(board, scratch, {}, "checkerboard")), 0u);
    // 1-px stripes: one component per row, or per column.
    image::Image rows(w, h, 0.0f);
    image::Image cols(w, h, 0.0f);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (y % 2 == 0) rows.at(x, y) = 5.0f + 0.01f * static_cast<float>(y % 5);
        if (x % 2 == 1) cols.at(x, y) = 5.0f + 0.01f * static_cast<float>(x % 5);
      }
    }
    EXPECT_GT(masked_pixels(rows, expect_same_masking(rows, scratch, {}, "row stripes")), 0u);
    EXPECT_GT(masked_pixels(cols, expect_same_masking(cols, scratch, {}, "column stripes")), 0u);
  }
}

TEST(SegmentationDifferential, EdgeTouchingComponentsAndBorderDilationMatchOracle) {
  SegmentationScratch scratch;
  // A frame-border ring (one component touching every edge), companions in
  // every corner, and the central source; dilation runs into the border.
  const image::Image ring = picture({
      "aaaaaaaaaaaaaaaaaaaa",
      "a..................a",
      "a.aa............aa.a",
      "a.aa............aa.a",
      "a..................a",
      "a..................a",
      "a.......aaaa.......a",
      "a......aa22aa......a",
      "a......aa22aa......a",
      "a.......aaaa.......a",
      "a..................a",
      "a..................a",
      "a.aa............aa.a",
      "a.aa............aa.a",
      "a..................a",
      "aaaaaaaaaaaaaaaaaaaa",
  });
  const image::Image corners = picture({
      "aa..............a",
      "a................",
      ".................",
      ".................",
      "......aaaaa......",
      "......aa3aa......",
      "......aaaaa......",
      ".................",
      ".................",
      "................a",
      "a..............aa",
  });
  for (const int dilate : {0, 1, 2, 3, 7}) {
    MaskParams p;
    p.dilate = dilate;
    EXPECT_GT(masked_pixels(ring, expect_same_masking(ring, scratch, p, "ring")), 0u);
    EXPECT_GT(masked_pixels(corners, expect_same_masking(corners, scratch, p, "corners")), 0u);
  }
}

TEST(SegmentationDifferential, TiesAndDeblendedCoresMatchOracle) {
  SegmentationScratch scratch;
  // Tied brightest pixels in the central box: the left component's first
  // pixel comes first, but the right one's peak does, so a pick by label
  // and a pick by raster order of the peak differ.
  const image::Image tied = picture({
      "....................",
      "....................",
      "....................",
      "........a...........",
      "........a...........",
      "........a...........",
      "........a...........",
      "........a...........",
      "........a.a1a.......",
      "........a.aaa.......",
      "........a...........",
      "........1...........",
      "........a...........",
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
  });
  const image::Image tied_masked = expect_same_masking(tied, scratch, {}, "tied peaks");
  EXPECT_EQ(tied_masked.at(11, 8), 20.0f);  // the first peak's component is central
  EXPECT_EQ(tied_masked.at(8, 11), 0.0f);
  // Two cores equidistant from the central column: its pixels go to the
  // lower-numbered core (the left one), the brighter right core is central.
  const image::Image equidistant = picture({
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
      "...aaaaaaaaaaa......",
      "...a1aaaaaaa2a......",
      "...aaaaaaaaaaa......",
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
      "....................",
  });
  const image::Image split = expect_same_masking(equidistant, scratch, {}, "equidistant cores");
  EXPECT_EQ(split.at(12, 7), 30.0f);  // the central core
  EXPECT_EQ(split.at(9, 7), 5.0f);
  EXPECT_EQ(split.at(8, 7), 0.0f);  // equidistant: the lower-numbered core claims it
  EXPECT_EQ(split.at(4, 7), 0.0f);
  // Four cores, two of them tied in brightness, one C-shaped core that wraps
  // around a plain pixel, and an equidistant pixel between each pair.
  const image::Image four = picture({
      "......................",
      "......................",
      "......................",
      "....aaaaaaaaaaaaaa....",
      "....a4aaaaaaaaa4aa....",
      "....aaaaaaaaaaaaaa....",
      "....aaaaaaa555aaaa....",
      "....aaaaaaa5a5aaaa....",
      "....aaaaaaaa.5aaaa....",
      "....aaaaaaaaaaaaaa....",
      "....a3aaaaaaaaaaaa....",
      "....aaaaaaaaaaaaaa....",
      "......................",
      "......................",
      "......................",
      "......................",
  });
  const image::Image four_masked = expect_same_masking(four, scratch, {}, "four cores");
  EXPECT_EQ(four_masked.at(12, 6), 60.0f);  // the central core
  EXPECT_EQ(four_masked.at(5, 10), 0.0f);
  EXPECT_EQ(four_masked.at(5, 4), 0.0f);
  EXPECT_EQ(four_masked.at(15, 4), 0.0f);
}

TEST(SegmentationDifferential, RandomFieldsMatchOracle) {
  // Random sizes down to single rows and columns, random thresholds and
  // dilation depths, scratch reused across all of them.
  SegmentationScratch scratch;
  Rng rng(20031115);
  std::size_t masked = 0;
  for (int i = 0; i < 300; ++i) {
    const int w = i < 8 ? 1 + i % 3 : 1 + static_cast<int>(rng.uniform_index(70));
    const int h = i < 8 ? 1 + i / 3 : 1 + static_cast<int>(rng.uniform_index(70));
    const image::Image frame = random_field(rng, w, h);
    MaskParams p;
    p.threshold_sigma = 1.0 + rng.uniform_index(3);
    p.dilate = static_cast<int>(rng.uniform_index(4));
    masked += masked_pixels(
                  frame, expect_same_masking(frame, scratch, p, "random field " + std::to_string(i))) > 0;
  }
  EXPECT_GT(masked, 100u);
}

// ---------------------------------------------------------------------------
// Vector-register lanes vs one-element-at-a-time lanes
// ---------------------------------------------------------------------------

/// find_centroid as it was before its loops were blocked into vector
/// registers: each element added to lane x & 3 on its own.
Centroid centroid_scalar_lanes(const image::Image& img, double radius) {
  Centroid c;
  c.x = (img.width() - 1) / 2.0;
  c.y = (img.height() - 1) / 2.0;
  for (int it = 0; it < 12; ++it) {
    double sum_l[4] = {0.0, 0.0, 0.0, 0.0};
    double sx_l[4] = {0.0, 0.0, 0.0, 0.0};
    double sy_l[4] = {0.0, 0.0, 0.0, 0.0};
    const int x0 = std::max(0, static_cast<int>(c.x - radius));
    const int x1 = std::min(img.width() - 1, static_cast<int>(c.x + radius));
    const int y0 = std::max(0, static_cast<int>(c.y - radius));
    const int y1 = std::min(img.height() - 1, static_cast<int>(c.y + radius));
    const double r2 = radius * radius;
    for (int y = y0; y <= y1; ++y) {
      const double dy = y - c.y;
      const double dy2 = dy * dy;
      if (dy2 > r2) continue;
      for (int x = x0; x <= x1; ++x) {
        const double dx = x - c.x;
        if (dx * dx + dy2 > r2) continue;
        const double w = std::max(0.0f, img.at(x, y));
        sum_l[x & 3] += w;
        sx_l[x & 3] += w * x;
        sy_l[x & 3] += w * y;
      }
    }
    const double sum = (sum_l[0] + sum_l[1]) + (sum_l[2] + sum_l[3]);
    const double sx = (sx_l[0] + sx_l[1]) + (sx_l[2] + sx_l[3]);
    const double sy = (sy_l[0] + sy_l[1]) + (sy_l[2] + sy_l[3]);
    if (sum <= 0.0) return c;
    const double nx = sx / sum;
    const double ny = sy / sum;
    const double shift = std::hypot(nx - c.x, ny - c.y);
    c.x = nx;
    c.y = ny;
    if (shift < 0.05) {
      c.converged = true;
      return c;
    }
  }
  return c;
}

/// estimate_background's clipped moments as they were before blocking.
BackgroundEstimate background_scalar_lanes(const image::Image& img, int border) {
  std::vector<float> samples;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (y < border || y >= img.height() - border || x < border ||
          x >= img.width() - border) {
        samples.push_back(img.at(x, y));
      }
    }
  }
  BackgroundEstimate out;
  double mean = 0.0;
  double sigma = 0.0;
  std::size_t count = samples.size();
  for (int it = 0; it < 5; ++it) {
    double sum_l[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < count; ++i) sum_l[i & 3] += samples[i];
    mean = ((sum_l[0] + sum_l[1]) + (sum_l[2] + sum_l[3])) / static_cast<double>(count);
    double var_l[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < count; ++i) {
      var_l[i & 3] += (samples[i] - mean) * (samples[i] - mean);
    }
    const double var = (var_l[0] + var_l[1]) + (var_l[2] + var_l[3]);
    sigma = count > 1 ? std::sqrt(var / static_cast<double>(count - 1)) : 0.0;
    if (sigma <= 0.0) break;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const float v = samples[i];
      samples[kept] = v;
      kept += std::fabs(v - mean) <= 3.0 * sigma ? 1 : 0;
    }
    if (kept == count || kept < 8) break;
    count = kept;
  }
  out.level = mean;
  out.sigma = sigma;
  out.pixels_used = static_cast<int>(count);
  return out;
}

/// Pixels whose magnitudes span 2^-40..2^40, so double sums of them round
/// and a sum depends on which lane adds which pixel in which order. (Sums of
/// a few hundred floats of similar size are exact in double, whatever the
/// order, and could not tell the lanes apart.)
image::Image wide_range_field(Rng& rng, int width, int height) {
  image::Image img(width, height, 0.0f);
  for (float& v : img.pixels()) {
    v = static_cast<float>(std::ldexp(rng.normal(0.0, 1.0),
                                      static_cast<int>(rng.uniform_index(81)) - 40));
  }
  return img;
}

TEST(KernelGolden, LaneBlocksMatchScalarLanesAtEveryAlignment) {
  Rng rng(7);
  for (int width = 29; width <= 36; ++width) {
    const image::Image frame = wide_range_field(rng, width, 33);
    // On an odd-width frame the first pass centers on column k = (w-1)/2,
    // and the middle row's interval is [k - r, k + r] for an integer
    // radius r: r = 5..12 starts it at every column mod 4 and leaves every
    // tail length, and the other rows and passes shift it further.
    for (double radius = 5.0; radius <= 12.0; radius += 1.0) {
      for (const double r : {radius, radius + 0.37}) {
        const Centroid want = centroid_scalar_lanes(frame, r);
        const Centroid got = find_centroid(frame, r);
        EXPECT_EQ(hex_bits(got.x), hex_bits(want.x)) << width << " px, r " << r;
        EXPECT_EQ(hex_bits(got.y), hex_bits(want.y)) << width << " px, r " << r;
        EXPECT_EQ(got.converged, want.converged) << width << " px, r " << r;
      }
    }
    // The border sample count, and the survivors of each clipping round,
    // take every value mod 4 across these widths and borders.
    for (int border = 1; border <= 4; ++border) {
      const BackgroundEstimate want = background_scalar_lanes(frame, border);
      const BackgroundEstimate got = estimate_background(frame, border, 5, 3.0);
      EXPECT_EQ(hex_bits(got.level), hex_bits(want.level)) << width << " px, border " << border;
      EXPECT_EQ(hex_bits(got.sigma), hex_bits(want.sigma)) << width << " px, border " << border;
      EXPECT_EQ(got.pixels_used, want.pixels_used) << width << " px, border " << border;
    }
  }
}

// ---------------------------------------------------------------------------
// CurveOfGrowth vs direct scans
// ---------------------------------------------------------------------------

image::Image random_cutout(std::uint64_t seed, int size) {
  GalaxyTruth g;
  g.id = "EQ_" + std::to_string(seed);
  g.seed = hash64(g.id);
  g.type = (seed % 3 == 0)   ? MorphType::kElliptical
           : (seed % 3 == 1) ? MorphType::kSpiral
                             : MorphType::kIrregular;
  g.total_flux = 2e4 + 1e3 * static_cast<double>(seed % 40);
  g.r_e_pix = 2.5 + 0.15 * static_cast<double>(seed % 20);
  if (g.type != MorphType::kElliptical) g.sersic_n = 1.0;
  RenderOptions opts;
  return sim::render_galaxy(g, size, opts);
}

TEST(CurveOfGrowthEquivalence, ApertureFluxMatchesDirectScan) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const image::Image img = random_cutout(seed, 64);
    const double cx = 31.5 + 0.07 * static_cast<double>(seed % 7);
    const double cy = 31.5 - 0.05 * static_cast<double>(seed % 5);
    CurveOfGrowth cog;
    cog.build(img, cx, cy);
    for (double r : {0.4, 1.0, 2.3, 5.0, 9.7, 14.2, 23.0, 31.0}) {
      const double direct = aperture_flux(img, cx, cy, r);
      const double fast = cog.aperture_flux(r);
      EXPECT_NEAR(fast, direct, 1e-6 * std::max(1.0, std::fabs(direct)))
          << "seed=" << seed << " r=" << r;
    }
  }
}

TEST(CurveOfGrowthEquivalence, AnnulusMeanMatchesDirectScan) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const image::Image img = random_cutout(seed, 64);
    CurveOfGrowth cog;
    cog.build(img, 31.5, 31.5);
    for (double r : {1.5, 3.0, 6.5, 12.0, 20.0, 28.0}) {
      const double direct = annulus_mean(img, 31.5, 31.5, r - 0.8, r + 0.8);
      const double fast = cog.annulus_mean(r - 0.8, r + 0.8);
      EXPECT_NEAR(fast, direct, 1e-9 * std::max(1.0, std::fabs(direct)))
          << "seed=" << seed << " r=" << r;
    }
  }
}

TEST(CurveOfGrowthEquivalence, PetrosianMatchesDirectSweep) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const image::Image img = random_cutout(seed, 64);
    CurveOfGrowth cog;
    cog.build(img, 31.5, 31.5);
    const auto direct = petrosian_radius(img, 31.5, 31.5, 0.2, 31.0);
    const auto fast = cog.petrosian_radius(0.2, 31.0);
    ASSERT_EQ(direct.has_value(), fast.has_value()) << "seed=" << seed;
    if (direct) {
      EXPECT_EQ(*direct, *fast) << "seed=" << seed;
    }
  }
}

TEST(CurveOfGrowthProperty, RadiusEnclosingMonotoneInFraction) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const image::Image img = random_cutout(seed, 64);
    CurveOfGrowth cog;
    cog.build(img, 31.5, 31.5);
    const double total = cog.aperture_flux(24.0);
    ASSERT_GT(total, 0.0) << "seed=" << seed;
    double prev = 0.0;
    for (double f = 0.1; f < 0.95; f += 0.1) {
      const auto r = cog.radius_enclosing(f, total, 24.0);
      ASSERT_TRUE(r.has_value()) << "seed=" << seed << " f=" << f;
      EXPECT_GE(*r, prev) << "seed=" << seed << " f=" << f;
      prev = *r;
    }
  }
}

TEST(CurveOfGrowthProperty, RadiusEnclosingAgreesWithDirectBisection) {
  // Independent re-derivation: bisect the direct aperture_flux scan, with no
  // code shared with CurveOfGrowth's lookup-based bisection. Agreement
  // within 0.05 px across 50 random cutouts.
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const int size = 48 + 8 * static_cast<int>(seed % 3);
    const image::Image img = random_cutout(seed, size);
    const double cx = (size - 1) / 2.0;
    const double cy = (size - 1) / 2.0;
    const double max_radius = size / 2.0 - 1.0;
    CurveOfGrowth cog;
    cog.build(img, cx, cy);
    const double total = cog.aperture_flux(max_radius);
    if (total <= 0.0) continue;
    for (double fraction : {0.2, 0.5, 0.8}) {
      const auto fast = cog.radius_enclosing(fraction, total, max_radius);
      ASSERT_TRUE(fast.has_value()) << "seed=" << seed << " f=" << fraction;
      const double target = fraction * total;
      double lo = 0.0;
      double hi = max_radius;
      ASSERT_GE(aperture_flux(img, cx, cy, hi), target) << "seed=" << seed;
      for (int it = 0; it < 60 && hi - lo > 1e-4; ++it) {
        const double mid = 0.5 * (lo + hi);
        (aperture_flux(img, cx, cy, mid) < target ? lo : hi) = mid;
      }
      const double direct = 0.5 * (lo + hi);
      EXPECT_NEAR(*fast, direct, 0.05)
          << "seed=" << seed << " f=" << fraction;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100);  // the continue above must stay the exception
}

// ---------------------------------------------------------------------------
// Lazy CurveOfGrowth vs the eager build (cog_oracle.hpp)
// ---------------------------------------------------------------------------

/// One radial query, asked of both curves.
struct CogQuery {
  enum Kind { kFlux, kAnnulus, kEnclosing, kPetrosian } kind;
  double a = 0.0;  ///< radius, r_in, fraction or eta
  double b = 0.0;  ///< r_out, total flux or max radius
  double c = 0.0;  ///< max radius of kEnclosing
};

std::string answer_bits(const std::optional<double>& v) {
  return v ? hex_bits(*v) : "none";
}

/// The answer's bits: equal strings are memcmp-equal results.
template <typename Curve>
std::string ask(Curve& cog, const CogQuery& q) {
  switch (q.kind) {
    case CogQuery::kFlux:
      return hex_bits(cog.aperture_flux(q.a));
    case CogQuery::kAnnulus:
      return hex_bits(cog.annulus_mean(q.a, q.b));
    case CogQuery::kEnclosing:
      return answer_bits(cog.radius_enclosing(q.a, q.b, q.c));
    case CogQuery::kPetrosian:
      return answer_bits(cog.petrosian_radius(q.a, q.b));
  }
  return "";
}

/// Distance from (cx, cy) to the farthest pixel center of the frame.
double far_corner(const image::Image& img, double cx, double cy) {
  return std::hypot(std::max(cx, img.width() - 1 - cx), std::max(cy, img.height() - 1 - cy));
}

/// Queries from radius 0 (and a negative one) out past the far corner: a
/// flux and an annulus at each radius, the enclosing-radius bisections and
/// the Petrosian sweep at some.
std::vector<CogQuery> outward_queries(const oracle::EagerCurveOfGrowth& eager,
                                      double corner) {
  const double beyond = corner + 3.0;
  const double total = eager.aperture_flux(beyond);
  std::vector<double> radii = {-1.5, 0.0};
  const double step = std::max(0.3, corner / 40.0);
  for (double r = 0.3; r < beyond; r += step) radii.push_back(r);
  radii.push_back(corner);
  radii.push_back(beyond);
  std::vector<CogQuery> out;
  for (std::size_t i = 0; i < radii.size(); ++i) {
    const double r = radii[i];
    out.push_back({CogQuery::kFlux, r});
    out.push_back({CogQuery::kAnnulus, std::max(r - 0.8, 0.0), r + 0.8});
    if (i % 5 == 0) {
      out.push_back({CogQuery::kEnclosing, 0.2, total, r});
      out.push_back({CogQuery::kEnclosing, 0.8, std::fabs(total), r});
    }
    if (i % 10 == 0) out.push_back({CogQuery::kPetrosian, 0.2, r});
  }
  out.push_back({CogQuery::kPetrosian, 0.2, 1e9});
  return out;
}

/// Asks every query of `order` of the lazy curve, built afresh, and
/// compares each answer with the eager curve's.
void expect_lazy_matches_eager(CurveOfGrowth& lazy, const image::Image& img, double cx,
                               double cy, const std::vector<CogQuery>& queries,
                               const std::vector<std::string>& want,
                               const std::vector<std::size_t>& order,
                               const std::string& what) {
  lazy.build(img, cx, cy);
  for (const std::size_t q : order) {
    ASSERT_EQ(ask(lazy, queries[q]), want[q])
        << what << ", query " << q << " (kind " << queries[q].kind << ", " << queries[q].a
        << ", " << queries[q].b << ", " << queries[q].c << ")";
  }
}

/// Every query, in every order, at every center of `img`.
void check_frame_against_eager(const image::Image& img, const std::string& what) {
  CurveOfGrowth reused;  // one instance across centers and orders, as a workspace
  const double w = img.width();
  const double h = img.height();
  const double centers[][2] = {
      {(w - 1) / 2, (h - 1) / 2},            // frame center
      {0.37 * w + 0.13, 0.61 * h - 0.29},    // off-center
      {1.2, 0.7},                            // near a corner
      {w - 1.6, h - 2.3},                    // near the opposite corner
      {0.0, (h - 1) / 2 + 0.25},             // on the left edge
      {(w - 1) / 2 - 0.5, h - 1.0},          // on the bottom edge
  };
  Rng rng(static_cast<std::uint64_t>(w * 131 + h));
  for (const auto& c : centers) {
    const double cx = c[0];
    const double cy = c[1];
    const oracle::EagerCurveOfGrowth eager(img, cx, cy);
    const std::vector<CogQuery> queries = outward_queries(eager, far_corner(img, cx, cy));
    std::vector<std::string> want;
    for (const CogQuery& q : queries) want.push_back(ask(eager, q));

    std::vector<std::size_t> outward(queries.size());
    for (std::size_t i = 0; i < outward.size(); ++i) outward[i] = i;
    const std::vector<std::size_t> inward(outward.rbegin(), outward.rend());
    std::vector<std::size_t> shuffled = outward;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.uniform_index(i)]);
    }
    // Each query twice in a row, then the whole sequence again.
    std::vector<std::size_t> repeated;
    for (const std::size_t q : shuffled) repeated.insert(repeated.end(), {q, q});
    repeated.insert(repeated.end(), outward.begin(), outward.end());

    const std::string at = what + " at (" + std::to_string(cx) + ", " + std::to_string(cy) + ")";
    const std::pair<const char*, const std::vector<std::size_t>*> orders[] = {
        {"outward", &outward}, {"inward", &inward}, {"random", &shuffled},
        {"repeated", &repeated}};
    for (const auto& [name, order] : orders) {
      CurveOfGrowth fresh;
      expect_lazy_matches_eager(fresh, img, cx, cy, queries, want, *order,
                                at + ", fresh, " + name);
      expect_lazy_matches_eager(reused, img, cx, cy, queries, want, *order,
                                at + ", reused, " + name);
    }
  }
}

TEST(CurveOfGrowthDifferential, SmallAndOddFramesMatchEagerBuild) {
  Rng rng(41);
  check_frame_against_eager(wide_range_field(rng, 16, 16), "16x16 wide");
  check_frame_against_eager(wide_range_field(rng, 17, 33), "17x33 wide");
  check_frame_against_eager(wide_range_field(rng, 33, 17), "33x17 wide");
  check_frame_against_eager(random_field(rng, 17, 33), "17x33 blobs");
}

TEST(CurveOfGrowthDifferential, SurveySizedFramesMatchEagerBuild) {
  Rng rng(43);
  for (const int size : {64, 128}) {
    const std::string px = std::to_string(size) + " px";
    check_frame_against_eager(wide_range_field(rng, size, size), px + " wide");
    check_frame_against_eager(random_cutout(7, size), px + " galaxy");
    check_frame_against_eager(random_cutout(8, size), px + " second galaxy");
  }
}

TEST(CurveOfGrowthDifferential, RebuildOnAnotherFrameForgetsTheFirst) {
  // A workspace measures frames of different sizes in turn: the second
  // frame's curve must not read the first frame's shells.
  Rng rng(47);
  const image::Image big = wide_range_field(rng, 128, 128);
  const image::Image small = wide_range_field(rng, 40, 24);
  CurveOfGrowth cog;
  cog.build(big, 70.3, 50.8);
  (void)cog.aperture_flux(200.0);  // the whole frame sorted
  for (const auto& [img, cx, cy] : {std::tuple{&small, 19.5, 11.5},
                                    std::tuple{&big, 20.25, 100.5},
                                    std::tuple{&small, 3.0, 20.0}}) {
    const oracle::EagerCurveOfGrowth eager(*img, cx, cy);
    cog.build(*img, cx, cy);
    for (const double r : {2.5, 9.0, 30.0, 0.7, 150.0}) {
      EXPECT_EQ(hex_bits(cog.aperture_flux(r)), hex_bits(eager.aperture_flux(r)))
          << img->width() << " px at (" << cx << ", " << cy << "), r " << r;
      EXPECT_EQ(hex_bits(cog.annulus_mean(r - 0.8, r + 0.8)),
                hex_bits(eager.annulus_mean(r - 0.8, r + 0.8)))
          << img->width() << " px at (" << cx << ", " << cy << "), r " << r;
    }
  }
}

TEST(CurveOfGrowthDifferential, CutsWithinUlpsOfAnIntegerMatchEagerBuild) {
  // A query scans its edge shells only up to the last one that can count.
  // Here a cut (r - 0.71 and r + 0.71 of a flux, r_in and r_out of an
  // annulus, r -+ 0.8 of the Petrosian annulus) sits within a few ulps of
  // an integer, where the shells of the pixels at that distance meet; the
  // centers put pixel centers at integer distances, or an ulp off them.
  Rng rng(53);
  const image::Image img = wide_range_field(rng, 48, 48);
  const double centers[][2] = {{24.0, 24.0},
                               {23.5, 24.0},
                               {20.25, 27.0},
                               {std::nextafter(24.0, 0.0), 24.0},
                               {std::nextafter(24.0, 48.0), std::nextafter(21.0, 0.0)}};
  CurveOfGrowth cog;
  for (const auto& c : centers) {
    const oracle::EagerCurveOfGrowth eager(img, c[0], c[1]);
    cog.build(img, c[0], c[1]);
    const std::string at = "at (" + hex_bits(c[0]) + ", " + hex_bits(c[1]) + ")";
    for (int k = 1; k <= 30; ++k) {
      const double edge = k;
      for (const double base : {edge - 0.71, edge + 0.71, edge - 0.8, edge + 0.8, edge}) {
        double r = base;
        for (int i = 0; i < 4; ++i) r = std::nextafter(r, 0.0);
        for (int i = 0; i <= 8; ++i, r = std::nextafter(r, 100.0)) {
          ASSERT_EQ(hex_bits(cog.aperture_flux(r)), hex_bits(eager.aperture_flux(r)))
              << at << ", flux r " << hex_bits(r);
          const double r_in = std::max(r - 0.8, 0.0);
          ASSERT_EQ(hex_bits(cog.annulus_mean(r_in, r + 0.8)),
                    hex_bits(eager.annulus_mean(r_in, r + 0.8)))
              << at << ", annulus about " << hex_bits(r);
          ASSERT_EQ(hex_bits(cog.annulus_mean(r, r + 1.6)),
                    hex_bits(eager.annulus_mean(r, r + 1.6)))
              << at << ", annulus from " << hex_bits(r);
          ASSERT_EQ(hex_bits(cog.annulus_mean(r_in, r)), hex_bits(eager.annulus_mean(r_in, r)))
              << at << ", annulus to " << hex_bits(r);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded asymmetry search vs the exhaustive search (asymmetry_oracle.hpp)
// ---------------------------------------------------------------------------

/// Runs both searches; value and center must match bit for bit. Returns the
/// evaluations the bounded search stopped early.
int expect_same_search(const image::Image& img, double cx, double cy, double radius,
                       const std::string& what) {
  const AsymmetrySearch want = oracle::exhaustive_asymmetry_search(img, cx, cy, radius);
  const AsymmetrySearch got = asymmetry_search(img, cx, cy, radius);
  const std::string at = what + " at (" + std::to_string(cx) + ", " + std::to_string(cy) +
                         "), r " + std::to_string(radius);
  EXPECT_EQ(hex_bits(got.value), hex_bits(want.value)) << at;
  EXPECT_EQ(hex_bits(got.x), hex_bits(want.x)) << at;
  EXPECT_EQ(hex_bits(got.y), hex_bits(want.y)) << at;
  return got.evaluations_stopped;
}

TEST(AsymmetrySearchDifferential, SurveyCutoutsMatchExhaustiveSearch) {
  // The kernel's own inputs: each valid survey cutout's masked frame,
  // centroid and aperture, and a narrower aperture besides.
  const analysis::SurveyConfig cfg;
  const auto specs = sim::survey_cluster_specs({cfg.seed, 5000});
  const MorphologyOptions options;
  MorphologyWorkspace workspace;
  for (const int size : {16, 64, 128}) {
    const double frame_limit = size / 2.0 - 1.0;
    int searched = 0;
    int stopped = 0;
    for (const sim::ClusterSpec& spec : specs) {
      const sim::Cluster cluster = sim::generate_cluster(spec, cfg.args.cosmology());
      for (const sim::GalaxyTruth& g : cluster.galaxies) {
        if (searched == 80) break;
        const image::FitsFile fits = sim::synthesize_galaxy_cutout(
            cluster, g, size, cfg.render, cfg.seed, cfg.corruption_rate);
        const MorphologyParams p = measure_morphology(fits.data, options, workspace);
        if (!p.valid) continue;
        const double aperture =
            std::min(options.aperture_petrosian_factor * p.petrosian_r, frame_limit);
        const std::string what = g.id + " (" + std::to_string(size) + " px)";
        stopped += expect_same_search(workspace.scratch, p.centroid_x, p.centroid_y,
                                      aperture, what);
        stopped += expect_same_search(workspace.scratch, p.centroid_x, p.centroid_y,
                                      0.6 * aperture, what);
        ++searched;
      }
    }
    EXPECT_GE(searched, size == 16 ? 10 : 80) << size << " px";
    // The bound must actually cut evaluations short, or this compares
    // nothing but the evaluation order.
    EXPECT_GT(stopped, searched) << size << " px";
  }
}

TEST(AsymmetrySearchDifferential, CentersNearTheFrameEdgeMatchExhaustiveSearch) {
  Rng rng(59);
  const image::Image frames[] = {random_cutout(11, 64), wide_range_field(rng, 40, 33)};
  for (const image::Image& img : frames) {
    const double w = img.width();
    const double h = img.height();
    const double centers[][2] = {{0.3, 0.6},       {w - 1.2, 0.9}, {0.0, h - 1.0},
                                 {w - 1.25, h / 2}, {w / 2, 0.75}, {0.5, h - 1.5}};
    for (const auto& c : centers) {
      for (const double radius : {3.0, 9.5, 25.0}) {
        expect_same_search(img, c[0], c[1], radius, std::to_string(img.width()) + " px");
      }
    }
  }
}

TEST(AsymmetrySearchDifferential, ExactTiesResolveAsTheExhaustiveSearch) {
  // A constant frame: inside the frame every rotation is exact, so all 17
  // values are 0 and the first coarse cell wins the tie with the center.
  const image::Image flat(32, 32, 1.0f);
  expect_same_search(flat, 15.25, 15.75, 6.0, "constant");
  const AsymmetrySearch first = asymmetry_search(flat, 15.25, 15.75, 6.0);
  EXPECT_EQ(first.value, 0.0);
  EXPECT_EQ(first.x, 14.75);
  EXPECT_EQ(first.y, 15.25);
  // Reaching past the edge, the frame's mirror symmetry about the center
  // ties cells in pairs.
  expect_same_search(flat, 15.5, 15.25, 14.0, "constant, clipped");
  expect_same_search(flat, 15.25, 15.75, 17.0, "constant, clipped");
  // An all-zero frame: den is 0, every value is 0, no evaluation can stop.
  const image::Image zero(24, 24, 0.0f);
  EXPECT_EQ(expect_same_search(zero, 11.75, 11.5, 8.0, "zero"), 0);

  // Small integers mirror-symmetric about column 16: with quarter-pixel
  // centers every term and sum is exact, so cells mirrored about the
  // column tie exactly.
  image::Image mirrored(33, 31, 0.0f);
  for (int y = 0; y < mirrored.height(); ++y) {
    for (int x = 0; x < mirrored.width(); ++x) {
      const int d = std::abs(x - 16);
      mirrored.at(x, y) = static_cast<float>(1 + (d * 7 + y * 3 + d * y) % 5);
    }
  }
  EXPECT_EQ(asymmetry_statistic(mirrored, 15.5, 15.25, 9.0),
            asymmetry_statistic(mirrored, 16.5, 15.25, 9.0));
  for (const double cy : {15.0, 15.25, 14.75}) {
    for (const double radius : {4.0, 9.0, 12.5}) {
      expect_same_search(mirrored, 16.0, cy, radius, "mirrored");
    }
  }
}

}  // namespace
}  // namespace nvo::core
