// Per-stage attribution of the morphology kernel for traced runs. The
// library runs the Conselice CAS estimators inside one call
// (core::measure_morphology); here the same frame is measured again through
// the public stage functions, in measure_morphology's order, each under its
// own span. The replay must reproduce the kernel's parameters bit for bit,
// or the run fails: a stage split that measures something else is useless.
#include <algorithm>
#include <cmath>
#include <optional>

#include "common.hpp"
#include "core/galmorph.hpp"
#include "image/fits.hpp"
#include "sky/coords.hpp"

namespace perfbench {
namespace {

using namespace nvo;

/// Galaxies replayed per traced run (evenly spaced over the sample).
constexpr std::size_t kReplayGalaxies = 600;

struct StageTimes {
  double background = 0.0;
  double segment = 0.0;
  double centroid = 0.0;
  double cog = 0.0;
  double asymmetry = 0.0;
};

/// Replays one valid frame; false when the replayed parameters differ from
/// `expected`.
bool replay_stages(const image::Image& cutout, const core::MorphologyOptions& options,
                   const core::MorphologyParams& expected, core::MorphologyWorkspace& ws,
                   StageTimes& t) {
  constexpr double kPi = 3.14159265358979323846;
  core::BackgroundEstimate bg;
  image::Image& img = ws.scratch;
  {
    ScopedUs span(t.background);
    bg = core::estimate_background(cutout, options.background_border, 5, 3.0,
                                   ws.background_samples);
    core::subtract_background_into(cutout, bg, img);
  }
  {
    ScopedUs span(t.segment);
    core::mask_companions_inplace(img, bg.sigma, ws.segmentation);
  }
  const double frame_limit = std::min(cutout.width(), cutout.height()) / 2.0 - 1.0;
  core::Centroid centroid;
  {
    ScopedUs span(t.centroid);
    centroid = core::find_centroid(img, frame_limit);
  }
  // Curve of growth: the build plus every radial query the kernel answers
  // from it (Petrosian radius, aperture flux, r20 and r80).
  double aperture = 0.0;
  double total_flux = 0.0;
  double r20 = 0.0;
  double r80 = 0.0;
  {
    ScopedUs span(t.cog);
    ws.cog.build(img, centroid.x, centroid.y, nullptr);
    const auto r_p = ws.cog.petrosian_radius(options.petrosian_eta, frame_limit);
    if (!r_p) return false;
    aperture = std::min(options.aperture_petrosian_factor * *r_p, frame_limit);
    total_flux = ws.cog.aperture_flux(aperture);
    r20 = ws.cog.radius_enclosing(0.2, total_flux, aperture).value_or(0.0);
    r80 = ws.cog.radius_enclosing(0.8, total_flux, aperture).value_or(0.0);
  }
  // Asymmetry: the coarse and refined 3x3 recentering grids.
  double best = 1e300;
  double best_x = centroid.x;
  double best_y = centroid.y;
  {
    ScopedUs span(t.asymmetry);
    for (const double step : {0.5, 0.25}) {
      const double base_x = best_x;
      const double base_y = best_y;
      for (int i = 0; i < 9; ++i) {
        const double x = base_x + (i % 3 - 1) * step;
        const double y = base_y + (i / 3 - 1) * step;
        const double a = core::asymmetry_statistic(img, x, y, aperture);
        if (a < best) {
          best = a;
          best_x = x;
          best_y = y;
        }
      }
    }
  }
  const double n_pix = kPi * aperture * aperture;
  const double noise_floor =
      total_flux > 0.0 ? n_pix * (2.0 * bg.sigma / std::sqrt(kPi)) / (2.0 * total_flux)
                       : 0.0;
  return centroid.x == expected.centroid_x && centroid.y == expected.centroid_y &&
         total_flux == expected.total_flux && r20 == expected.r20 &&
         r80 == expected.r80 &&
         std::max(0.0, best - noise_floor) == expected.asymmetry;
}

}  // namespace

void replay_kernel(const std::vector<KernelSample>& sample,
                   const nvo::core::GalMorphArgs& base_args, Result& result) {
  core::MorphologyOptions options;
  options.pixel_scale_arcsec = base_args.pix_scale_deg * sky::kArcsecPerDeg;
  options.zero_point = base_args.zero_point;
  core::MorphologyWorkspace ws;
  const std::size_t stride = std::max<std::size_t>(1, sample.size() / kReplayGalaxies);
  double job_us = 0.0;
  double decode_us = 0.0;
  double kernel_us = 0.0;
  StageTimes stages;
  std::uint64_t allocs = 0;
  std::size_t replayed = 0;
  bool matches = true;
  for (std::size_t i = 0; i < sample.size(); i += stride) {
    const KernelSample& g = sample[i];
    core::GalMorphArgs args = base_args;
    args.redshift = g.redshift;
    if (i == 0) {  // the first call sizes this thread's kernel workspace
      (void)core::run_gal_morph_bytes(*g.id, *g.fits, args);
    }
    double job = 0.0;
    double decode = 0.0;
    double kernel = 0.0;
    const std::uint64_t a0 = thread_allocations();
    core::GalMorphResult r;
    {
      ScopedUs span(job);
      r = core::run_gal_morph_bytes(*g.id, *g.fits, args);
    }
    const std::uint64_t job_allocs = thread_allocations() - a0;
    // Stage times are only comparable over frames that reach every stage.
    if (!r.params.valid) continue;
    std::optional<Expected<image::FitsFile>> fits;
    {
      ScopedUs span(decode);
      fits.emplace(image::read_fits(*g.fits));
    }
    if (!fits->ok()) continue;
    const image::Image& frame = fits->value().data;
    core::MorphologyParams p;
    {
      ScopedUs span(kernel);
      p = core::measure_morphology(frame, options);
    }
    matches = matches && p.concentration == r.params.concentration &&
              replay_stages(frame, options, p, ws, stages);
    job_us += job;
    decode_us += decode;
    kernel_us += kernel;
    allocs += job_allocs;
    ++replayed;
  }
  result.check(replayed > 0 && matches,
               "kernel stage replay does not reproduce measure_morphology");
  const double inv = replayed > 0 ? 1.0 / static_cast<double>(replayed) : 0.0;
  result.metric("image.decode_us", decode_us * inv, "us", Clock::kWall);
  result.metric("core.background_us", stages.background * inv, "us", Clock::kWall);
  result.metric("core.segment_us", stages.segment * inv, "us", Clock::kWall);
  result.metric("core.centroid_us", stages.centroid * inv, "us", Clock::kWall);
  result.metric("core.cog_us", stages.cog * inv, "us", Clock::kWall);
  result.metric("core.asymmetry_us", stages.asymmetry * inv, "us", Clock::kWall);
  result.metric("core.kernel_us", kernel_us * inv, "us", Clock::kWall);
  result.metric("core.job_us", job_us * inv, "us", Clock::kWall);
  result.metric("core.allocs_per_galaxy", static_cast<double>(allocs) * inv, "count",
                Clock::kNone);
  result.note("replayed_galaxies", static_cast<double>(replayed), "count", Clock::kNone);
}

void replay_universe_kernel(const nvo::sim::Universe& universe, Result& result) {
  std::vector<std::string> ids;
  std::vector<double> redshifts;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const sim::Cluster& c : universe.clusters()) {
    for (const sim::GalaxyTruth& g : c.galaxies) {
      ids.push_back(g.id);
      redshifts.push_back(g.redshift);
      frames.push_back(image::write_fits(universe.galaxy_cutout(c, g, 64)));
    }
  }
  std::vector<KernelSample> sample;
  sample.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    sample.push_back({&ids[i], redshifts[i], &frames[i]});
  }
  replay_kernel(sample, core::GalMorphArgs{}, result);
}

}  // namespace perfbench
