// F6 — Paper Figure 6: the web-service design. Measures the request
// lifecycle through the asynchronous morphology service: a cache-miss
// request (stage images, generate VDL, Chimera, Pegasus, DAGMan, register)
// versus a cache-hit request (RLS short-circuit, §4.3 step 2), plus the
// fault-tolerance behaviour (§4.3.1 item 4: bad images yield
// validity-flagged rows, not failures) and the design-issue comparison of
// synchronous vs asynchronous operation. The compose/plan/kernel columns are
// wall milliseconds of this host. Claims: the cache hit costs 0 sim s, the
// invalid rows are exactly the corrupted cutouts, and the request completes.
#include <algorithm>
#include <cstdio>

#include "analysis/campaign.hpp"
#include "shape_claims.hpp"

namespace {

using namespace nvo;

int run_figure6() {
  bench::ShapeClaims claims;
  std::printf("=== Figure 6: web-service request lifecycle ===\n");
  analysis::CampaignConfig config;
  config.population_scale = 0.2;
  analysis::Campaign campaign(config);
  portal::Portal& portal = campaign.portal();
  portal::MorphologyService& service = campaign.compute_service();
  const std::string cluster = "A2390";

  auto catalog = portal.build_galaxy_catalog(cluster);
  auto input = portal.attach_cutout_refs(std::move(catalog.value()), cluster);

  // --- cache miss ---
  auto url1 = service.gal_morph_compute(input.value(), cluster);
  const portal::ServiceTrace* miss = service.last_trace();
  std::printf("request 1 (cache miss): %zu galaxies\n", miss->galaxies);
  std::printf("  image staging:   %8.0f sim ms  (%zu fetched, %zu cached)\n",
              miss->image_fetch_sim_ms, miss->images_fetched, miss->images_cached);
  std::printf("  VDL generated:   %8.0f bytes\n", miss->vdl_bytes);
  std::printf("  chimera compose: %8.2f wall ms\n", miss->compose_wall_ms);
  std::printf("  pegasus plan:    %8.2f wall ms  (%zu+%zu+%zu nodes)\n",
              miss->plan_wall_ms, miss->plan.compute_nodes,
              miss->plan.transfer_nodes, miss->plan.register_nodes);
  std::printf("  dagman makespan: %8.1f sim s\n",
              miss->execution.makespan_seconds);
  std::printf("  kernel compute:  %8.0f wall ms  (%zu valid, %zu invalid)\n",
              miss->kernel_wall_ms, miss->valid_results, miss->invalid_results);
  std::printf("  END-TO-END:      %8.1f sim s\n", miss->total_sim_seconds);

  // --- cache hit ---
  auto url2 = service.gal_morph_compute(input.value(), cluster);
  const portal::ServiceTrace* hit = service.last_trace();
  std::printf("request 2 (cache hit): RLS short-circuit, %.1f sim s (%.0fx "
              "faster)\n",
              hit->total_sim_seconds,
              miss->total_sim_seconds / std::max(hit->total_sim_seconds, 1e-3));

  // --- sync vs async (design issue 2) ---
  std::printf("\nsync vs async interface (§4.3.1 item 2):\n");
  std::printf("  synchronous client would block %.1f simulated seconds\n",
              miss->total_sim_seconds);
  std::printf("  asynchronous client got its status URL immediately and "
              "polled (10 sim ms per poll)\n");

  // --- fault tolerance (design issue 4) ---
  const sim::Universe& universe = campaign.universe();
  const sim::Cluster* truth = universe.find_cluster(cluster);
  std::size_t corrupted = 0;
  for (std::size_t r = 0; r < input->num_rows(); ++r) {
    const std::optional<std::string> id = input->cell(r, "id").as_string();
    const auto g = std::find_if(
        truth->galaxies.begin(), truth->galaxies.end(),
        [&](const sim::GalaxyTruth& t) { return id && t.id == *id; });
    if (g != truth->galaxies.end() && universe.cutout_is_corrupted(*g)) ++corrupted;
  }
  const auto poll = service.poll(url1.value());
  const bool completed = poll.ok() && poll->state == "completed";
  std::printf("\nfault tolerance: %zu of %zu cutouts arrived corrupted; %zu "
              "validity-flagged rows; request %s\n",
              corrupted, miss->galaxies, miss->invalid_results,
              completed ? "completed" : "did not complete");
  claims.check(url2.ok() && hit->cache_hit && hit->total_sim_seconds == 0.0,
               "the cache hit costs 0 sim s");
  claims.check(miss->invalid_results == corrupted,
               "invalid rows = corrupted cutouts");
  claims.check(completed, "the request completes");
  return claims.exit_code();
}

}  // namespace

int main() { return run_figure6(); }
