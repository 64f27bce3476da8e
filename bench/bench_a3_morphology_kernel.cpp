// A3 — Kernel benchmark: the morphology computation itself. The paper notes
// "the computational requirements for calculating these parameters for a
// single galaxy are fairly light" (§2) — the grid matters because thousands
// of galaxies are processed. This benchmark measures the real kernel: CAS
// parameters per second vs cutout size and galaxy type, the cost breakdown
// of its stages, and thread-pool scaling of a batch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bench_common.hpp"
#include "core/background.hpp"
#include "core/galmorph.hpp"
#include "core/morphology.hpp"
#include "core/photometry.hpp"
#include "core/segmentation.hpp"
#include "grid/threadpool.hpp"
#include "image/fits.hpp"
#include "sim/cluster.hpp"
#include "sim/galaxy.hpp"
#include "sim/survey.hpp"
#include "sim/universe.hpp"

namespace {

using namespace nvo;

// ---------------------------------------------------------------------------
// Legacy (pre-curve-of-growth) radial query implementations, kept verbatim in
// the benchmark so the BM_RadialQueries* pair measures the optimization
// against the exact seed algorithm rather than against a remembered number.
// ---------------------------------------------------------------------------
namespace legacy {

double aperture_flux(const image::Image& img, double cx, double cy, double radius) {
  if (radius <= 0.0) return 0.0;
  double flux = 0.0;
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - radius - 1)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + radius + 1)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - radius - 1)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + radius + 1)));
  const double r2 = radius * radius;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      const double d = std::sqrt(dx * dx + dy * dy);
      if (d <= radius - 0.71) {
        flux += img.at(x, y);
        continue;
      }
      if (d >= radius + 0.71) continue;
      int covered = 0;
      for (int sy = 0; sy < 4; ++sy) {
        for (int sx = 0; sx < 4; ++sx) {
          const double px = x - 0.5 + (sx + 0.5) / 4.0;
          const double py = y - 0.5 + (sy + 0.5) / 4.0;
          const double ddx = px - cx;
          const double ddy = py - cy;
          if (ddx * ddx + ddy * ddy <= r2) ++covered;
        }
      }
      flux += img.at(x, y) * covered / 16.0;
    }
  }
  return flux;
}

std::optional<double> radius_enclosing(const image::Image& img, double cx, double cy,
                                       double fraction, double total_flux,
                                       double max_radius) {
  if (total_flux <= 0.0 || fraction <= 0.0 || fraction >= 1.0) return std::nullopt;
  const double target = fraction * total_flux;
  double lo = 0.0;
  double hi = max_radius;
  if (aperture_flux(img, cx, cy, hi) < target) return std::nullopt;
  for (int it = 0; it < 40 && hi - lo > 0.01; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (aperture_flux(img, cx, cy, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double annulus_mean(const image::Image& img, double cx, double cy, double r_in,
                    double r_out) {
  double sum = 0.0;
  int count = 0;
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - r_out)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + r_out)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - r_out)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + r_out)));
  const double in2 = r_in * r_in;
  const double out2 = r_out * r_out;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      const double d2 = dx * dx + dy * dy;
      if (d2 < in2 || d2 >= out2) continue;
      sum += img.at(x, y);
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

std::optional<double> petrosian_radius(const image::Image& img, double cx, double cy,
                                       double eta, double max_radius) {
  const double limit = std::min({max_radius, static_cast<double>(img.width()),
                                 static_cast<double>(img.height())});
  const double pi = 3.14159265358979323846;
  for (double r = 1.5; r <= limit; r += 0.5) {
    const double enclosed = aperture_flux(img, cx, cy, r);
    const double area = pi * r * r;
    const double mean_interior = enclosed / area;
    if (mean_interior <= 0.0) return std::nullopt;
    const double local = annulus_mean(img, cx, cy, std::max(r - 0.8, 0.0), r + 0.8);
    if (local < eta * mean_interior) return r;
  }
  return std::nullopt;
}

/// Seed asymmetry: materializes the rotated frame, then differences it.
double asymmetry_statistic(const image::Image& img, double cx, double cy,
                           double radius) {
  const image::Image rotated = img.rotate180_about(cx, cy);
  double num = 0.0;
  double den = 0.0;
  const int x0 = std::max(0, static_cast<int>(cx - radius));
  const int x1 = std::min(img.width() - 1, static_cast<int>(cx + radius));
  const int y0 = std::max(0, static_cast<int>(cy - radius));
  const int y1 = std::min(img.height() - 1, static_cast<int>(cy + radius));
  const double r2 = radius * radius;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      if (dx * dx + dy * dy > r2) continue;
      num += std::fabs(img.at(x, y) - rotated.at(x, y));
      den += std::fabs(img.at(x, y));
    }
  }
  return den > 0.0 ? num / (2.0 * den) : 0.0;
}

}  // namespace legacy

sim::GalaxyTruth make_truth(sim::MorphType type, int size_hint) {
  sim::GalaxyTruth g;
  g.id = std::string("BENCH_") + sim::to_string(type) + std::to_string(size_hint);
  g.seed = hash64(g.id);
  g.type = type;
  g.total_flux = 8e4;
  g.r_e_pix = 4.0;
  if (type == sim::MorphType::kSpiral) {
    g.sersic_n = 1.0;
    g.arm_amplitude = 0.5;
    g.clumpiness = 0.1;
    g.r_e_pix = 6.0;
  }
  return g;
}

void print_a3() {
  std::printf("=== A3: morphology kernel cost profile ===\n");
  std::printf("(see google-benchmark output below: kernel vs cutout size, "
              "per-stage costs, thread scaling)\n\n");
}

void BM_MeasureMorphologyBySize(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const image::Image img =
      sim::render_galaxy(make_truth(sim::MorphType::kElliptical, size), size, {});
  // Warm-up populates the thread-local workspace so the counter reflects the
  // steady state, not first-call buffer growth.
  benchmark::DoNotOptimize(core::measure_morphology(img));
  const std::uint64_t allocs = bench::heap_allocs();
  for (auto _ : state) {
    auto params = core::measure_morphology(img);
    benchmark::DoNotOptimize(params);
  }
  bench::report_allocs(state, allocs);
  state.SetComplexityN(size);
}
BENCHMARK(BM_MeasureMorphologyBySize)
    ->Arg(32)->Arg(64)->Arg(96)->Arg(128)->Complexity()
    ->Unit(benchmark::kMicrosecond);

void BM_MeasureSpiral(benchmark::State& state) {
  const image::Image img =
      sim::render_galaxy(make_truth(sim::MorphType::kSpiral, 64), 64, {});
  for (auto _ : state) {
    auto params = core::measure_morphology(img);
    benchmark::DoNotOptimize(params);
  }
}
BENCHMARK(BM_MeasureSpiral)->Unit(benchmark::kMicrosecond);

void BM_StageBackground(benchmark::State& state) {
  const image::Image img =
      sim::render_galaxy(make_truth(sim::MorphType::kElliptical, 64), 64, {});
  for (auto _ : state) {
    auto bg = core::estimate_background(img);
    benchmark::DoNotOptimize(bg);
  }
}
BENCHMARK(BM_StageBackground)->Unit(benchmark::kMicrosecond);

void BM_StagePetrosian(benchmark::State& state) {
  const image::Image raw =
      sim::render_galaxy(make_truth(sim::MorphType::kElliptical, 64), 64, {});
  const auto bg = core::estimate_background(raw);
  const image::Image img = core::subtract_background(raw, bg);
  for (auto _ : state) {
    auto rp = core::petrosian_radius(img, 31.5, 31.5);
    benchmark::DoNotOptimize(rp);
  }
}
BENCHMARK(BM_StagePetrosian)->Unit(benchmark::kMicrosecond);

void BM_StageAsymmetry(benchmark::State& state) {
  const image::Image raw =
      sim::render_galaxy(make_truth(sim::MorphType::kSpiral, 64), 64, {});
  const auto bg = core::estimate_background(raw);
  const image::Image img = core::subtract_background(raw, bg);
  const std::uint64_t allocs = bench::heap_allocs();
  for (auto _ : state) {
    const double a = core::asymmetry_statistic(img, 31.5, 31.5, 18.0);
    benchmark::DoNotOptimize(a);
  }
  // The index-arithmetic rotation touches no heap: this counter must be 0.
  bench::report_allocs(state, allocs);
}
BENCHMARK(BM_StageAsymmetry)->Unit(benchmark::kMicrosecond);

void BM_StageAsymmetryRotateCopy(benchmark::State& state) {
  // The seed implementation: materialize rotate180_about, then difference.
  // Kept for comparison against the allocation-free BM_StageAsymmetry.
  const image::Image raw =
      sim::render_galaxy(make_truth(sim::MorphType::kSpiral, 64), 64, {});
  const auto bg = core::estimate_background(raw);
  const image::Image img = core::subtract_background(raw, bg);
  const std::uint64_t allocs = bench::heap_allocs();
  for (auto _ : state) {
    const double a = legacy::asymmetry_statistic(img, 31.5, 31.5, 18.0);
    benchmark::DoNotOptimize(a);
  }
  bench::report_allocs(state, allocs);
}
BENCHMARK(BM_StageAsymmetryRotateCopy)->Unit(benchmark::kMicrosecond);

/// Prepares the frame exactly as the kernel does before its radial queries:
/// background-subtracted, companions masked, centroid found.
struct RadialFixture {
  image::Image img;
  double cx = 0.0;
  double cy = 0.0;
  double limit = 0.0;
  explicit RadialFixture(int size, bool extended = false) {
    sim::GalaxyTruth g = make_truth(sim::MorphType::kSpiral, size);
    if (extended) {
      // An extended disk at constant surface brightness (flux scales with
      // r_e^2): the Petrosian sweep runs deep, so the per-step O(r^2)
      // rescans of the direct implementation pile up.
      g.id += "_ext";
      g.seed = hash64(g.id);
      const double scale = (size / 5.0) / g.r_e_pix;
      g.r_e_pix = size / 5.0;
      g.total_flux *= scale * scale;
    }
    const image::Image raw = sim::render_galaxy(g, size, {});
    const auto bg = core::estimate_background(raw);
    img = core::subtract_background(raw, bg);
    core::mask_companions_inplace(img, bg.sigma);
    limit = std::min(img.width(), img.height()) / 2.0 - 1.0;
    const auto c = core::find_centroid(img, limit);
    cx = c.x;
    cy = c.y;
  }
};

void BM_RadialQueriesLegacy(benchmark::State& state) {
  // The kernel's full radial query set — Petrosian sweep, total flux,
  // r20/r80 bisections — each answered by a fresh O(R^2) aperture scan.
  const RadialFixture fx(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto rp = legacy::petrosian_radius(fx.img, fx.cx, fx.cy, 0.2, fx.limit);
    const double aperture = std::min(1.5 * *rp, fx.limit);
    const double flux = legacy::aperture_flux(fx.img, fx.cx, fx.cy, aperture);
    const auto r20 = legacy::radius_enclosing(fx.img, fx.cx, fx.cy, 0.2, flux, aperture);
    const auto r80 = legacy::radius_enclosing(fx.img, fx.cx, fx.cy, 0.8, flux, aperture);
    benchmark::DoNotOptimize(r20);
    benchmark::DoNotOptimize(r80);
  }
}
BENCHMARK(BM_RadialQueriesLegacy)->Arg(64)->Arg(96)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_RadialQueriesCog(benchmark::State& state) {
  // Same query set answered from one curve-of-growth build (build cost
  // included) — the shape measure_morphology now uses.
  const RadialFixture fx(static_cast<int>(state.range(0)));
  core::CurveOfGrowth cog;
  cog.build(fx.img, fx.cx, fx.cy);  // warm-up sizes the internal buffers
  const std::uint64_t allocs = bench::heap_allocs();
  for (auto _ : state) {
    cog.build(fx.img, fx.cx, fx.cy);
    const auto rp = cog.petrosian_radius(0.2, fx.limit);
    const double aperture = std::min(1.5 * *rp, fx.limit);
    const double flux = cog.aperture_flux(aperture);
    const auto r20 = cog.radius_enclosing(0.2, flux, aperture);
    const auto r80 = cog.radius_enclosing(0.8, flux, aperture);
    benchmark::DoNotOptimize(r20);
    benchmark::DoNotOptimize(r80);
  }
  bench::report_allocs(state, allocs);
}
BENCHMARK(BM_RadialQueriesCog)->Arg(64)->Arg(96)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_RadialQueriesLegacyExtended(benchmark::State& state) {
  // Worst case for the direct scans: an extended low-surface-brightness
  // disk. Every 0.5-px Petrosian step re-scans an O(r^2) aperture.
  const RadialFixture fx(static_cast<int>(state.range(0)), /*extended=*/true);
  for (auto _ : state) {
    // A sweep that exhausts the frame without converging (very extended or
    // faint sources) is the worst case: every 0.5-px step paid in full
    // before the source is rejected.
    const auto rp = legacy::petrosian_radius(fx.img, fx.cx, fx.cy, 0.2, fx.limit);
    if (rp) {
      const double aperture = std::min(1.5 * *rp, fx.limit);
      const double flux = legacy::aperture_flux(fx.img, fx.cx, fx.cy, aperture);
      const auto r20 = legacy::radius_enclosing(fx.img, fx.cx, fx.cy, 0.2, flux, aperture);
      const auto r80 = legacy::radius_enclosing(fx.img, fx.cx, fx.cy, 0.8, flux, aperture);
      benchmark::DoNotOptimize(r20);
      benchmark::DoNotOptimize(r80);
    }
    benchmark::DoNotOptimize(rp);
  }
}
BENCHMARK(BM_RadialQueriesLegacyExtended)->Arg(96)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_RadialQueriesCogExtended(benchmark::State& state) {
  // Same extended source: the curve of growth's cost is one fixed two-pass
  // build regardless of how deep the sweep runs.
  const RadialFixture fx(static_cast<int>(state.range(0)), /*extended=*/true);
  core::CurveOfGrowth cog;
  for (auto _ : state) {
    cog.build(fx.img, fx.cx, fx.cy);
    const auto rp = cog.petrosian_radius(0.2, fx.limit);
    if (rp) {
      const double aperture = std::min(1.5 * *rp, fx.limit);
      const double flux = cog.aperture_flux(aperture);
      const auto r20 = cog.radius_enclosing(0.2, flux, aperture);
      const auto r80 = cog.radius_enclosing(0.8, flux, aperture);
      benchmark::DoNotOptimize(r20);
      benchmark::DoNotOptimize(r80);
    }
    benchmark::DoNotOptimize(rp);
  }
}
BENCHMARK(BM_RadialQueriesCogExtended)->Arg(96)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_CogBuild(benchmark::State& state) {
  // The counting-sort build alone: two linear passes over the frame.
  const int size = static_cast<int>(state.range(0));
  const image::Image img =
      sim::render_galaxy(make_truth(sim::MorphType::kElliptical, size), size, {});
  core::CurveOfGrowth cog;
  for (auto _ : state) {
    cog.build(img, size / 2.0 - 0.5, size / 2.0 - 0.5);
    benchmark::DoNotOptimize(cog);
  }
}
BENCHMARK(BM_CogBuild)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

/// A survey cutout as the archives serve it: WCS, OBJECT, REDSHIFT and MAG
/// cards over a float data unit of `size` px on a side.
std::vector<std::uint8_t> survey_cutout_bytes(int size) {
  const auto specs = sim::survey_cluster_specs({1, 2000});
  const sim::Cluster cluster =
      sim::generate_cluster(specs.front(), core::GalMorphArgs{}.cosmology());
  sim::RenderOptions render;
  render.supersample = 1;
  return image::write_fits(
      sim::synthesize_galaxy_cutout(cluster, cluster.galaxies.front(), size, render, 1, 0.0));
}

void BM_FitsDecode(benchmark::State& state) {
  // read_fits: the structural scan, the pixel loop and the header cards.
  const std::vector<std::uint8_t> bytes = survey_cutout_bytes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto fits = image::read_fits(bytes);
    benchmark::DoNotOptimize(fits);
  }
}
BENCHMARK(BM_FitsDecode)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_FitsDecodePixels(benchmark::State& state) {
  // decode_fits_pixels into a reused frame: what the galMorph job decodes.
  const std::vector<std::uint8_t> bytes = survey_cutout_bytes(static_cast<int>(state.range(0)));
  image::Image frame;
  const std::uint64_t before = nvo::bench::heap_allocs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(image::decode_fits_pixels(bytes, frame));
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  nvo::bench::report_allocs(state, before);
}
BENCHMARK(BM_FitsDecodePixels)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_GalMorphFromBytes(benchmark::State& state) {
  // The full job body: decode FITS + measure + physical scale.
  image::FitsFile fits;
  fits.data = sim::render_galaxy(make_truth(sim::MorphType::kElliptical, 64), 64, {});
  const std::vector<std::uint8_t> bytes = image::write_fits(fits);
  core::GalMorphArgs args;
  args.redshift = 0.2;
  for (auto _ : state) {
    auto result = core::run_gal_morph_bytes("g", bytes, args);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GalMorphFromBytes)->Unit(benchmark::kMicrosecond);

void BM_BatchThreadScaling(benchmark::State& state) {
  // 64 cutouts measured on a pool of range(0) threads. On a single-core
  // host the scaling flattens at 1; on multi-core it tracks the pool size.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::vector<image::Image> cutouts;
  for (int i = 0; i < 64; ++i) {
    sim::GalaxyTruth g = make_truth(
        i % 2 ? sim::MorphType::kSpiral : sim::MorphType::kElliptical, i);
    g.id += "_batch" + std::to_string(i);
    g.seed = hash64(g.id);
    cutouts.push_back(sim::render_galaxy(g, 64, {}));
  }
  grid::ThreadPool pool(threads);
  for (auto _ : state) {
    std::vector<core::MorphologyParams> results(cutouts.size());
    grid::parallel_for(pool, cutouts.size(), [&](std::size_t i) {
      results[i] = core::measure_morphology(cutouts[i]);
    });
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_BatchThreadScaling)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  print_a3();
  return nvo::bench::run_benchmarks(argc, argv);
}
