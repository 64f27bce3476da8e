// F5 — Paper Figure 5: portal operation. Walks the full user flow on one
// cluster — select, large-scale image search, catalog assembly (cone
// searches + join), cutout references, compute submission, merge — and
// reports per-stage simulated time. Includes the paper's own bottleneck
// observation: "an image query and download for each galaxy must be done
// separately. This could be sped up tremendously if one could query for all
// images at once" — all three cutout query modes are measured side by side.
// Claims: per-galaxy queries = galaxies > coalesced > wide-cone = 1, and the
// cutout sim time falls strictly in that order.
#include <algorithm>
#include <cstdio>

#include "analysis/campaign.hpp"
#include "shape_claims.hpp"

namespace {

using namespace nvo;

int run_figure5() {
  bench::ShapeClaims claims;
  std::printf("=== Figure 5: portal operation, per-stage simulated time ===\n");
  analysis::CampaignConfig config;
  config.population_scale = 0.2;
  analysis::Campaign campaign(config);
  const std::string name = "MS0906";

  auto outcome = campaign.run_cluster(name);
  if (!outcome.ok()) {
    claims.check(false, name + " runs: " + outcome.error().to_string());
    return claims.exit_code();
  }
  const portal::PortalTrace& t = outcome->portal_trace;
  std::printf("cluster %s: %zu galaxies (%zu valid, %zu invalid)\n", name.c_str(),
              t.galaxies, t.valid, t.invalid);
  std::printf("%-34s %14s\n", "stage", "sim time (ms)");
  std::printf("%-34s %14.0f\n", "large-scale image search (3 SIA)", t.image_search_ms);
  std::printf("%-34s %14.0f\n", "catalog build (2 cones + join)", t.catalog_build_ms);
  std::printf("%-34s %14.0f   (%zu queries)\n", "cutout references (SIA)",
              t.cutout_query_ms, t.cutout_queries);
  std::printf("%-34s %14.0f   (%zu polls)\n", "compute service wait",
              t.compute_wait_ms, t.polls);
  std::printf("%-34s %14.2f\n", "final merge (local join)", t.merge_ms);
  std::printf("%-34s %14.0f\n", "TOTAL", t.total_ms());

  // The paper's per-galaxy loop vs the two batched modes. The main trace
  // above already runs the default (coalesced patches); here each mode is
  // run explicitly so the comparison is labeled honestly.
  struct ModeRun {
    const char* label;
    portal::CutoutQueryMode mode;
  };
  const ModeRun modes[] = {
      {"per-galaxy", portal::CutoutQueryMode::kPerGalaxy},
      {"coalesced", portal::CutoutQueryMode::kCoalesced},
      {"wide-cone", portal::CutoutQueryMode::kWideCone},
  };
  std::printf("\ncutout metadata query modes (the paper's wished-for "
              "speedup):\n");
  std::printf("%-14s %10s %16s\n", "mode", "queries", "sim time (ms)");
  std::size_t queries[3] = {};
  double query_ms[3] = {};
  for (int i = 0; i < 3; ++i) {
    analysis::CampaignConfig mode_config = config;
    mode_config.cutout_mode = modes[i].mode;
    analysis::Campaign mode_campaign(mode_config);
    auto run = mode_campaign.run_cluster(name);
    if (!run.ok()) {
      claims.check(false, std::string(modes[i].label) + " runs: " +
                              run.error().to_string());
      return claims.exit_code();
    }
    queries[i] = run->portal_trace.cutout_queries;
    query_ms[i] = run->portal_trace.cutout_query_ms;
    std::printf("%-14s %10zu %16.0f", modes[i].label, queries[i], query_ms[i]);
    if (i > 0) {
      std::printf("   (%.0fx faster)", query_ms[0] / std::max(query_ms[i], 1.0));
    }
    std::printf("\n");
  }
  claims.check(queries[0] == t.galaxies && queries[0] > queries[1] &&
                   queries[1] > queries[2] && queries[2] == 1,
               "queries: per-galaxy = galaxies > coalesced > wide-cone = 1");
  claims.check(query_ms[0] > query_ms[1] && query_ms[1] > query_ms[2],
               "cutout sim ms: per-galaxy > coalesced > wide-cone");
  return claims.exit_code();
}

}  // namespace

int main() { return run_figure5(); }
