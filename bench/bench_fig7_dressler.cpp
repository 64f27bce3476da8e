// F7 — Paper Figure 7: the Aladin view — "the x-ray emission is shown in
// blue, and the optical mission is in red. The colored dots are located at
// the positions of the galaxies ... blue dots represent the most asymmetric
// galaxies (i.e. spiral galaxies) and are scattered throughout the image,
// while orange are the most symmetric, indicative of elliptical galaxies,
// are concentrated more toward the center." Regenerates the composite image
// with asymmetry-colored dots (written as fig7_<cluster>.ppm) and the
// density-morphology statistics behind it — the paper's §5 "rediscovery" of
// the Dressler relation. Claims: the relation is detected (three Spearman
// signs, and a core early-type fraction above the edge's), and the composite
// is byte-identical to the committed fig7_MS0906.ppm, whose path the build
// compiles in as NVO_FIG7_REFERENCE_PPM. The composite is written into the
// working directory after the comparison, so a run from the repository root
// regenerates the committed file.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "analysis/campaign.hpp"
#include "image/render.hpp"
#include "image/wcs.hpp"
#include "shape_claims.hpp"

namespace {

using namespace nvo;

std::vector<std::uint8_t> read_bytes(const char* path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

int run_figure7() {
  bench::ShapeClaims claims;
  std::printf("=== Figure 7: optical + X-ray composite with asymmetry dots ===\n");
  analysis::CampaignConfig config;
  config.population_scale = 0.35;  // a well-populated cluster for the picture
  analysis::Campaign campaign(config);
  const std::string name = "MS0906";

  auto outcome = campaign.run_cluster(name);
  if (!outcome.ok()) {
    claims.check(false, name + " runs: " + outcome.error().to_string());
    return claims.exit_code();
  }

  // Compose the image exactly as the caption describes.
  const sim::Cluster* cluster = campaign.universe().find_cluster(name);
  const image::FitsFile optical = campaign.universe().optical_field(*cluster, 512, 2.0);
  const image::FitsFile xray = campaign.universe().xray_field(*cluster, 512, 2.0);
  image::RgbImage composite = image::render_composite(optical.data, xray.data);
  const auto wcs = image::Wcs::from_header(optical.header).value();

  std::size_t dots = 0;
  for (const analysis::AnalysisGalaxy& g : outcome->dressler.galaxies) {
    const auto px = wcs.sky_to_pixel(g.position);
    const image::Rgb color = image::asymmetry_colormap(g.asymmetry, 0.0, 0.4);
    composite.draw_dot(static_cast<int>(px.x), static_cast<int>(px.y), 4, color);
    ++dots;
  }
  const bool matches_reference =
      composite.to_ppm() == read_bytes(NVO_FIG7_REFERENCE_PPM);
  const std::string path = "fig7_" + name + ".ppm";
  const Status written = composite.write_ppm(path);
  std::printf("wrote %s (%zu galaxy dots; blue = asymmetric/spiral, orange = "
              "symmetric/elliptical)%s\n",
              path.c_str(), dots,
              written.ok() ? "" : "  [write failed]");

  std::printf("\n%s\n", analysis::report_to_text(outcome->dressler).c_str());
  claims.check(outcome->dressler.relation_detected(),
               "density-morphology relation detected (three Spearman signs, "
               "core early fraction above the edge's)");
  claims.check(matches_reference,
               "the composite is byte-identical to the committed " + path);
  return claims.exit_code();
}

}  // namespace

int main() { return run_figure7(); }
