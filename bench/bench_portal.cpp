// Multi-tenant async portal under overload: open-loop Poisson + burst
// arrivals at 1x/2x/5x of calibrated capacity, three tenants with shared
// cluster lists (duplicate derivations exercise the single-flight +
// memoization path), reporting simulated p50/p99 latency, goodput, and
// shed rate — plus deadline attainment for the tenants that carry an SLO, a
// hedged-vs-unhedged stage-in comparison under scripted cutout-host
// brownouts, and an intake microbench showing that shedding a request on
// a saturated portal is a fast, explicitly-bounded decision.
//
// tools/run_bench.sh writes this binary's output to BENCH_portal.json, and
// tools/check_bench.py gates on: a non-zero shed rate at 5x, recomputes <
// completed requests (the memoization claim), attainment at 1x, hedged
// stage-in p99 strictly below unhedged, and hedge WAN inflation bounded by
// the hedge rate. The latency and goodput figures are simulated-clock
// quantities, so the checker pins them (the overload sweep's to within
// 1e-3: its capacity calibration still sees the wall-clock merge time);
// only the intake microbench measures wall time, and it carries no gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "bench_common.hpp"
#include "portal/async_portal.hpp"
#include "portal/load_gen.hpp"
#include "services/chaos.hpp"
#include "services/federation.hpp"
#include "sim/universe.hpp"

namespace {

using namespace nvo;

constexpr double kPopulationScale = 0.05;  // clusters of ~19..28 galaxies

analysis::CampaignConfig campaign_config() {
  analysis::CampaignConfig config;
  config.population_scale = kPopulationScale;
  config.compute_threads = 2;
  return config;
}

std::unique_ptr<portal::AsyncPortal> make_portal(
    analysis::Campaign& campaign, portal::AsyncPortalConfig config = {}) {
  auto p = std::make_unique<portal::AsyncPortal>(
      campaign.fabric(), campaign.federation(), campaign.compute_service(),
      config);
  for (const sim::Cluster& c : campaign.universe().clusters()) {
    portal::ClusterEntry entry;
    entry.name = c.name();
    entry.position = c.center();
    entry.redshift = c.redshift();
    entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
    p->add_cluster(entry);
  }
  return p;
}

std::vector<std::string> cluster_names(const analysis::Campaign& campaign,
                                       std::size_t n) {
  std::vector<std::string> names;
  const auto& clusters = campaign.universe().clusters();
  for (std::size_t i = 0; i < n && i < clusters.size(); ++i) {
    names.push_back(clusters[i].name());
  }
  return names;
}

// One calibrated mean service time shared by every overload point, measured
// once on a scratch campaign (same population scale, same clusters) via the
// synchronous portal. Simulated milliseconds — deterministic.
double calibrated_service_ms() {
  static const double value = [] {
    analysis::Campaign campaign(campaign_config());
    return portal::measure_mean_service_ms(campaign.portal(),
                                           cluster_names(campaign, 3));
  }();
  return value;
}

// ---------------------------------------------------------------------------
// The overload sweep: one fresh campaign + portal per point.
// ---------------------------------------------------------------------------

void BM_PortalOverload(benchmark::State& state) {
  const double overload = static_cast<double>(state.range(0));
  const double mean_service_ms = calibrated_service_ms();
  if (mean_service_ms <= 0.0) {
    state.SkipWithError("service-time calibration failed");
    return;
  }

  portal::LoadOutcome out;
  for (auto _ : state) {
    analysis::Campaign campaign(campaign_config());
    portal::AsyncPortalConfig config;
    config.admission.per_tenant_queue_limit = 4;
    config.admission.global_queue_limit = 8;
    auto async = make_portal(campaign, config);

    // Three tenants, overlapping cluster lists: every cluster is wanted by
    // at least two tenants, so duplicate derivations are guaranteed. The
    // paying tenants carry an end-to-end deadline SLO (a generous multiple
    // of the calibrated service time — comfortably met at 1x, under
    // pressure at 5x); the grad student runs best-effort.
    const std::vector<std::string> names = cluster_names(campaign, 4);
    const double slo_ms = 25.0 * mean_service_ms;
    const std::vector<portal::LoadTenantSpec> specs = {
        {"archive", 2.0, {names[0], names[1], names[2]}, 1.0, slo_ms},
        {"survey", 1.0, {names[0], names[2], names[3]}, 1.0, slo_ms},
        {"grad_student", 1.0, {names[1], names[3]}, 0.5, 0.0},
    };
    portal::LoadConfig load;
    load.mean_service_ms = mean_service_ms;
    load.overload = overload;
    load.requests_per_tenant = 10;
    load.seed = 20031115;
    out = portal::run_load(*async, campaign.fabric(), specs, load);
  }

  state.counters["p50_ms"] = benchmark::Counter(out.latency.p50_ms);
  state.counters["p99_ms"] = benchmark::Counter(out.latency.p99_ms);
  state.counters["goodput_per_s"] = benchmark::Counter(out.goodput_per_s);
  state.counters["shed_rate"] = benchmark::Counter(out.shed_rate);
  state.counters["requests"] = benchmark::Counter(static_cast<double>(out.submitted));
  state.counters["done"] = benchmark::Counter(static_cast<double>(out.done));
  state.counters["partial"] = benchmark::Counter(static_cast<double>(out.partial));
  state.counters["failed"] = benchmark::Counter(static_cast<double>(out.failed));
  state.counters["shed"] = benchmark::Counter(static_cast<double>(out.shed));
  state.counters["expired"] = benchmark::Counter(static_cast<double>(out.expired));
  state.counters["cancelled"] =
      benchmark::Counter(static_cast<double>(out.cancelled));
  state.counters["deadlines_assigned"] =
      benchmark::Counter(static_cast<double>(out.deadlines_assigned));
  state.counters["deadline_attainment"] =
      benchmark::Counter(out.deadline_attainment);
  state.counters["recomputes"] =
      benchmark::Counter(static_cast<double>(out.portal.recomputes));
  state.counters["memo_hits"] =
      benchmark::Counter(static_cast<double>(out.portal.memo_hits));
  state.counters["coalesced"] =
      benchmark::Counter(static_cast<double>(out.portal.coalesced));
  state.counters["sim_elapsed_ms"] = benchmark::Counter(out.sim_elapsed_ms);
  state.counters["mean_service_ms"] = benchmark::Counter(mean_service_ms);
  state.SetItemsProcessed(static_cast<std::int64_t>(out.done + out.partial));
}
BENCHMARK(BM_PortalOverload)
    ->Arg(1)
    ->Arg(2)
    ->Arg(5)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Hedged stage-ins vs the same weather without hedging.
// ---------------------------------------------------------------------------

// Identical campaigns except the hedging switch, under recurring cutout-host
// brownouts keyed to the simulated clock: a fetch that starts inside a
// window crawls (throttled bandwidth + added latency), everything else runs
// at archive speed. That heavy-tailed stage-in regime is exactly what the
// mirror hedge defends against — the mirror host is outside the windows.
analysis::CampaignConfig hedging_config(bool hedged) {
  analysis::CampaignConfig config = campaign_config();
  config.hedge_stage_ins = hedged;
  // The hedge delay is the 0.75 quantile of *primary* durations; with ~15%
  // of fetches browned out, that keeps the derived delay in the fast mode
  // so hedges launch early enough to rescue the stragglers.
  for (int i = 0; i < 4000; ++i) {
    services::FaultWindow w;
    w.kind = services::FaultWindow::Kind::kBrownout;
    w.host = services::Federation::kMastHost;
    w.path_prefix = "/cutout/image";
    w.bandwidth_factor = 0.05;
    w.extra_latency_ms = 80.0;
    w.start_ms = 1000.0 * i + 850.0;
    w.end_ms = 1000.0 * i + 1000.0;
    config.chaos.add(std::move(w));
  }
  return config;
}

void BM_PortalStageInHedging(benchmark::State& state) {
  const bool hedged = state.range(0) == 1;
  double worst_p99 = 0.0;
  double hedge_delay_ms = 0.0;
  std::size_t hedges = 0, wins = 0, fetched = 0;
  std::size_t wan_bytes = 0, wasted_bytes = 0;
  std::size_t clusters_run = 0;
  for (auto _ : state) {
    analysis::Campaign campaign(hedging_config(hedged));
    worst_p99 = hedge_delay_ms = 0.0;
    hedges = wins = fetched = wan_bytes = wasted_bytes = clusters_run = 0;
    for (const sim::Cluster& c : campaign.universe().clusters()) {
      const auto outcome = campaign.run_cluster(c.name());
      if (!outcome.ok()) {
        state.SkipWithError(outcome.error().to_string().c_str());
        return;
      }
      const portal::ServiceTrace* trace = campaign.compute_service().trace(
          outcome->portal_trace.compute_request_id);
      if (trace == nullptr) continue;
      ++clusters_run;
      worst_p99 = std::max(worst_p99, trace->stage_in_p99_ms);
      hedge_delay_ms = std::max(hedge_delay_ms, trace->hedge_delay_ms);
      hedges += trace->hedged_fetches;
      wins += trace->hedge_wins;
      fetched += trace->images_fetched;
      wan_bytes += trace->staging_wan_bytes;
      wasted_bytes += trace->hedge_wasted_bytes;
    }
  }

  // Worst per-cluster stage-in p99 (simulated ms) — tools/check_bench.py
  // requires the hedged variant strictly below the unhedged one, with WAN
  // inflation bounded by the hedge rate.
  state.counters["stage_in_p99_ms"] = benchmark::Counter(worst_p99);
  state.counters["hedged_fetches"] =
      benchmark::Counter(static_cast<double>(hedges));
  state.counters["hedge_wins"] = benchmark::Counter(static_cast<double>(wins));
  state.counters["hedge_rate"] = benchmark::Counter(
      fetched > 0 ? static_cast<double>(hedges) / static_cast<double>(fetched)
                  : 0.0);
  state.counters["hedge_delay_ms"] = benchmark::Counter(hedge_delay_ms);
  state.counters["images_fetched"] =
      benchmark::Counter(static_cast<double>(fetched));
  state.counters["staging_wan_bytes"] =
      benchmark::Counter(static_cast<double>(wan_bytes));
  state.counters["hedge_wasted_bytes"] =
      benchmark::Counter(static_cast<double>(wasted_bytes));
  state.counters["clusters"] =
      benchmark::Counter(static_cast<double>(clusters_run));
  state.SetItemsProcessed(static_cast<std::int64_t>(fetched));
}
BENCHMARK(BM_PortalStageInHedging)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Intake under saturation: how fast is an explicit rejection?
// ---------------------------------------------------------------------------

void BM_PortalShedDecision(benchmark::State& state) {
  // Saturate the queues once, then measure the wall-clock cost of turning a
  // request away: a map lookup and two counter bumps, no fabric traffic, no
  // allocation of pipeline state. items_per_second == shed decisions/s.
  analysis::Campaign campaign(campaign_config());
  portal::AsyncPortalConfig config;
  config.admission.per_tenant_queue_limit = 2;
  config.admission.global_queue_limit = 2;
  auto async = make_portal(campaign, config);
  async->add_tenant("flood");
  const std::string cluster =
      campaign.universe().clusters().front().name();
  while (async->submit("flood", cluster).admitted) {
  }

  std::int64_t sheds = 0;
  for (auto _ : state) {
    const portal::Submission s = async->submit("flood", cluster);
    benchmark::DoNotOptimize(s);
    if (!s.admitted) ++sheds;
  }
  state.SetItemsProcessed(sheds);
}
BENCHMARK(BM_PortalShedDecision);

}  // namespace

int main(int argc, char** argv) {
  return nvo::bench::run_benchmarks(argc, argv);
}
