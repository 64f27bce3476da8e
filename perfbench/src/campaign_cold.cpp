// campaign_cold: closed loop of cold §5 campaigns. Every iteration builds a
// fresh analysis::Campaign (population_scale 1.0: 8 clusters, 1525
// galaxies, 2 kernel threads) and calls Campaign::run(), so each request is
// a full derivation with memoization bypassed: federation, integrity-checked
// staging into an empty ReplicaCache/RLS, VDL/Chimera, Pegasus, the DAGMan
// simulation, the kernel, the streaming merge and the Dressler analysis.
// Set-up warms the process-wide RenderCache (synthesis is harness cost) and
// runs one untimed campaign whose catalogs are the reference. Building each
// iteration's Campaign realizes the synthetic universe, which is harness
// work too, so every timer starts after the constructor returns.
#include <algorithm>
#include <map>

#include "analysis/campaign.hpp"
#include "common.hpp"
#include "portal/transforms.hpp"
#include "votable/table_ops.hpp"

namespace perfbench {
namespace {

using namespace nvo;

constexpr std::size_t kSetupShards = 8;

analysis::CampaignConfig campaign_config(std::uint64_t seed) {
  analysis::CampaignConfig config;
  config.seed = seed;
  config.population_scale = 1.0;
  config.compute_threads = kKernelThreads;
  return config;
}

/// Catalog identity of a finished campaign: cluster -> digest of the exact
/// VOTable bytes the compute service served.
using Digests = std::map<std::string, std::uint64_t>;

Digests digests_of(const analysis::CampaignReport& report) {
  Digests out;
  for (const analysis::ClusterOutcome& c : report.clusters) {
    out[c.name] = digest(c.catalog_xml);
  }
  return out;
}

/// Layer accounting of traced campaigns (sums over the 8 clusters).
struct CampaignLayers {
  double total_ms = 0.0;
  double federation_ms = 0.0;
  double compute_ms = 0.0;
  double compose_ms = 0.0;
  double plan_ms = 0.0;
  double stage_kernel_ms = 0.0;
  double merge_ms = 0.0;
  double dressler_ms = 0.0;
  double federation_sim_ms = 0.0;
  double staging_sim_ms = 0.0;
  double stage_in_p99_ms = 0.0;
  double makespan_sim_s = 0.0;
  double http_requests = 0.0;
  double staging_wan_bytes = 0.0;
  double retries = 0.0;
  double compute_jobs = 0.0;
  double transfer_jobs = 0.0;
  double pool_idle_ms = 0.0;
  double replica_hits = 0.0;
};

/// Simulated request latency of one cluster: the portal trace's stage sum
/// minus its merge term, which the portal times on the wall clock.
double cluster_sim_ms(const analysis::ClusterOutcome& c) {
  return c.portal_trace.total_ms() - c.portal_trace.merge_ms;
}

/// CampaignReport::total_sim_seconds on the simulated clock alone (the
/// report's own figure carries the portal's wall-clock merge time).
double campaign_sim_seconds(const analysis::CampaignReport& report) {
  double s = 0.0;
  for (const analysis::ClusterOutcome& c : report.clusters) {
    s += c.makespan_seconds + cluster_sim_ms(c) / 1000.0;
  }
  return s;
}

double ms_since(SteadyClock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Wall spans around the driver's stage calls. Switched off they read no
/// clock, so the same driver is the untraced baseline for the overhead.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  void start() {
    if (on_) t_ = SteadyClock::now();
  }
  void stop(double& sink_ms) const {
    if (on_) sink_ms += ms_since(t_);
  }

 private:
  bool on_;
  SteadyClock::time_point t_;
};

/// One cold campaign driven through the same public stage calls
/// Portal::run_analysis and Campaign::run_cluster make. Building the
/// Campaign (universe realization) is harness work and stays outside the
/// timed window, whose length goes to `wall_ms`. With `traced`, spans sit
/// around each stage and the service read-outs are added to `layers`.
/// Returns false (with the reason in `error`) when a stage fails or a
/// catalog differs from the Campaign::run reference.
bool drive_campaign(const analysis::CampaignConfig& config, const Digests& reference,
                    std::size_t reference_relations, bool traced, double& wall_ms,
                    CampaignLayers& layers, std::string& error) {
  analysis::Campaign campaign(config);
  campaign.fabric().reset_metrics();
  portal::Portal& portal = campaign.portal();
  portal::MorphologyService& compute = campaign.compute_service();
  const double idle0 = traced ? settled_idle_ms(compute.pool()) : 0.0;
  Spans span(traced);
  std::size_t relations = 0;
  const auto t_total = SteadyClock::now();
  for (const sim::Cluster& cluster : campaign.universe().clusters()) {
    const std::string& name = cluster.name();
    portal::PortalTrace trace;
    span.start();
    auto images = portal.find_large_scale_images(name, &trace);
    auto catalog = images.ok() ? portal.build_galaxy_catalog(name, &trace)
                               : Expected<votable::Table>(images.error());
    auto with_refs = catalog.ok()
                         ? portal.attach_cutout_refs(std::move(catalog.value()), name, &trace)
                         : Expected<votable::Table>(catalog.error());
    span.stop(layers.federation_ms);
    if (!with_refs.ok()) {
      error = name + ": " + with_refs.error().to_string();
      return false;
    }
    const auto url_col = with_refs->column_index("cutout_url");
    if (!url_col) {
      error = name + ": no cutout_url column";
      return false;
    }
    const votable::Table input =
        votable::select(with_refs.value(), [&](const votable::Row& row) {
          const auto url = row[*url_col].as_string();
          return url && !url->empty();
        });

    span.start();
    auto status_url = compute.gal_morph_compute(input, name);
    std::string result_url;
    std::string request_id;
    if (status_url.ok()) {
      if (const auto pos = status_url->find("id="); pos != std::string::npos) {
        request_id = status_url->substr(pos + 3);
      }
      for (int i = 0; i < 64 && result_url.empty(); ++i) {
        auto poll = compute.poll(status_url.value());
        if (!poll.ok() || poll->state == "failed") break;
        if (poll->state == "completed") result_url = poll->result_url;
      }
    }
    auto morphology = result_url.empty()
                          ? Expected<votable::Table>(Error(ErrorCode::kComputeFailed,
                                                           "compute did not complete"))
                          : compute.fetch_result(result_url);
    span.stop(layers.compute_ms);
    if (!morphology.ok()) {
      error = name + ": " + morphology.error().to_string();
      return false;
    }

    span.start();
    auto merged = votable::join(with_refs.value(), morphology.value(), "id", "id",
                                votable::JoinKind::kLeft);
    span.stop(layers.merge_ms);
    if (!merged.ok()) {
      error = name + ": " + merged.error().to_string();
      return false;
    }
    merged->name = name + "_analysis";

    span.start();
    auto dressler = analysis::analyze_cluster(merged.value(), cluster.center());
    span.stop(layers.dressler_ms);
    if (dressler.ok() && dressler->relation_detected()) ++relations;

    const std::string* xml = compute.result_xml(portal::output_votable_lfn(name));
    const auto ref = reference.find(name);
    if (xml == nullptr || ref == reference.end() || digest(*xml) != ref->second) {
      error = name + ": driven catalog differs from Campaign::run";
      return false;
    }
    if (!traced) continue;
    layers.federation_sim_ms +=
        trace.image_search_ms + trace.catalog_build_ms + trace.cutout_query_ms;
    layers.retries += static_cast<double>(trace.retries);
    if (const portal::ServiceTrace* st = compute.trace(request_id)) {
      layers.compose_ms += st->compose_wall_ms;
      layers.plan_ms += st->plan_wall_ms;
      layers.stage_kernel_ms += st->kernel_wall_ms;
      layers.staging_sim_ms += st->image_fetch_sim_ms;
      layers.stage_in_p99_ms = std::max(layers.stage_in_p99_ms, st->stage_in_p99_ms);
      layers.makespan_sim_s += st->execution.makespan_seconds;
      layers.staging_wan_bytes += static_cast<double>(st->staging_wan_bytes);
      layers.retries += static_cast<double>(st->staging_retries);
      layers.compute_jobs += static_cast<double>(st->execution.compute_jobs);
      layers.transfer_jobs += static_cast<double>(st->execution.transfer_jobs);
    }
  }
  wall_ms = ms_since(t_total);
  if (traced) {
    layers.total_ms += wall_ms;
    layers.pool_idle_ms += settled_idle_ms(compute.pool()) - idle0;
    layers.http_requests += static_cast<double>(campaign.fabric().metrics().requests);
    layers.replica_hits += static_cast<double>(compute.replica_cache().stats().hits);
  }
  if (relations != reference_relations) {
    error = "driven campaign finds the density-morphology relation in a different "
            "number of clusters";
    return false;
  }
  return true;
}

}  // namespace

Result run_campaign_cold(const Options& options) {
  Result result;
  const analysis::CampaignConfig config = campaign_config(options.seed);

  // Set-up: render every frame the campaign will request, then one untimed
  // campaign, whose catalogs and accounting every timed run must reproduce.
  ShardedSetup shards;
  auto t0 = SteadyClock::now();
  analysis::Campaign warm(config);
  double other_setup_s = seconds_since(t0);
  const double synthesize_us = warm_render_cache(warm.universe(), kSetupShards, shards);
  t0 = SteadyClock::now();
  const auto warm_report = warm.run();
  other_setup_s += seconds_since(t0);
  const double setup_s = other_setup_s + shards.estimate_s();
  if (!warm_report.ok()) {
    result.check(false, "untimed campaign failed: " + warm_report.error().to_string());
    return result;
  }
  const Digests reference = digests_of(warm_report.value());
  const std::size_t relations = warm_report->clusters_with_relation;
  const double sim_seconds = campaign_sim_seconds(warm_report.value());
  std::vector<double> cluster_latency_ms;
  std::size_t dressler_clusters = 0;
  for (const analysis::ClusterOutcome& c : warm_report->clusters) {
    cluster_latency_ms.push_back(cluster_sim_ms(c));
    dressler_clusters += c.dressler.galaxies.empty() ? 0 : 1;
  }
  result.check(warm_report->clusters.size() == 8, "campaign did not run 8 clusters");
  result.check(dressler_clusters == warm_report->clusters.size(),
               "Dressler analysis missing for some cluster");

  // A traced run alternates traced and untraced drives of the same stage
  // calls, so their ratio is the tracing overhead; untraced runs time
  // Campaign::run itself. Either way the timer starts once the Campaign
  // (and its universe) is built. Every iteration repeats the same campaign,
  // so gal_per_s is the fastest one's rate: co-tenant load on a shared host
  // slows the median iteration far more than the fastest.
  std::vector<double> untraced_ms, traced_ms;
  std::vector<double> rates;
  std::uint64_t leaks = 0;
  CampaignLayers layers;
  bool traced_next = false;
  run_for(options.seconds, options.trace ? 4 : 3, [&] {
    const bool traced = options.trace && traced_next;
    traced_next = !traced_next;
    result.attempted += 1;
    const auto before = sim::RenderCache::instance().stats();
    if (options.trace) {
      std::string error;
      double ms = 0.0;
      const bool ok = drive_campaign(config, reference, relations, traced, ms, layers, error);
      result.check(ok, error);
      if (!ok) result.failed += 1;
      (traced ? traced_ms : untraced_ms).push_back(ms);
    } else {
      analysis::Campaign campaign(config);
      const auto t = SteadyClock::now();
      const auto report = campaign.run();
      const double ms = ms_since(t);
      if (!report.ok()) {
        result.failed += 1;
        result.check(false, "campaign failed: " + report.error().to_string());
      } else {
        untraced_ms.push_back(ms);
        rates.push_back(static_cast<double>(report->total_galaxies) / (ms * 1e-3));
        result.check(digests_of(report.value()) == reference,
                     "campaign catalogs differ between runs");
        result.check(report->clusters_with_relation == relations,
                     "density-morphology relation count differs between runs");
        result.check(campaign_sim_seconds(report.value()) == sim_seconds,
                     "simulated campaign time differs between runs");
      }
    }
    leaks += render_cache_leaks(before, sim::RenderCache::instance().stats());
  });
  result.check(leaks == 0, "RenderCache misses or clears inside the timed phase");

  const double galaxies = static_cast<double>(warm_report->total_galaxies);
  std::size_t invalid = 0;
  for (const auto& c : warm_report->clusters) invalid += c.invalid;
  if (!options.trace) {
    result.metric("setup_s", setup_s, "s", Clock::kWall);
    const double fastest_rate =
        rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end());
    result.metric("gal_per_s", fastest_rate, "1/s", Clock::kWall);
    result.metric("latency_p50_ms", quantile(cluster_latency_ms, 0.50), "ms", Clock::kSim);
    result.metric("latency_p99_ms", quantile(cluster_latency_ms, 0.99), "ms", Clock::kSim);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB", Clock::kWall);
  }
  if (!rates.empty()) result.note("median_gal_per_s", median(rates), "1/s", Clock::kWall);
  result.note("makespan_sim_s", sim_seconds, "s", Clock::kSim);
  result.note("galaxies", galaxies, "count", Clock::kNone);
  result.note("error_share", static_cast<double>(invalid) / galaxies, "share", Clock::kNone);
  result.note("clusters_with_relation", static_cast<double>(relations), "count",
              Clock::kNone);
  result.note("campaigns", static_cast<double>(result.attempted), "count", Clock::kNone);
  if (!options.trace) return result;

  const double n = traced_ms.empty() ? 1.0 : static_cast<double>(traced_ms.size());
  const double traced_mean_ms = layers.total_ms / n;
  result.metric("services.federation_wall_ms", layers.federation_ms / n, "ms", Clock::kWall);
  result.metric("portal.compute_wall_ms", layers.compute_ms / n, "ms", Clock::kWall);
  result.metric("vds.compose_wall_ms", layers.compose_ms / n, "ms", Clock::kWall);
  result.metric("pegasus.plan_wall_ms", layers.plan_ms / n, "ms", Clock::kWall);
  result.metric("portal.stage_kernel_wall_ms", layers.stage_kernel_ms / n, "ms",
                Clock::kWall);
  result.metric("portal.merge_wall_ms", layers.merge_ms / n, "ms", Clock::kWall);
  result.metric("analysis.dressler_wall_ms", layers.dressler_ms / n, "ms", Clock::kWall);
  result.metric("services.federation_sim_ms", layers.federation_sim_ms / n, "ms",
                Clock::kSim);
  result.metric("services.staging_sim_ms", layers.staging_sim_ms / n, "ms", Clock::kSim);
  result.metric("services.stage_in_p99_ms", layers.stage_in_p99_ms, "ms", Clock::kSim);
  result.metric("grid.makespan_sim_s", layers.makespan_sim_s / n, "s", Clock::kSim);
  result.metric("services.http_requests", layers.http_requests / n, "count", Clock::kNone);
  result.metric("services.staging_wan_bytes", layers.staging_wan_bytes / n, "bytes",
                Clock::kNone);
  result.metric("services.retries", layers.retries / n, "count", Clock::kNone);
  result.metric("services.replica_cache_hits", layers.replica_hits / n, "count",
                Clock::kNone);
  result.metric("pegasus.compute_jobs", layers.compute_jobs / n, "count", Clock::kNone);
  result.metric("pegasus.transfer_jobs", layers.transfer_jobs / n, "count", Clock::kNone);
  result.metric("grid.pool_busy_share",
                1.0 - layers.pool_idle_ms / (static_cast<double>(kKernelThreads) *
                                             layers.total_ms),
                "share", Clock::kWall);
  result.metric("sim.synthesize_us", synthesize_us, "us", Clock::kWall);
  result.metric("e2e.makespan_sim_s", sim_seconds, "s", Clock::kSim);
  result.metric("e2e.error_share", static_cast<double>(invalid) / galaxies, "share",
                Clock::kNone);
  // Layer self times: the compute span contains compose, plan and the
  // stage+kernel window, so it is counted once, whole.
  const double layer_sum =
      (layers.federation_ms + layers.compute_ms + layers.merge_ms + layers.dressler_ms) / n;
  result.metric("trace.residual_share", (traced_mean_ms - layer_sum) / traced_mean_ms,
                "share", Clock::kWall);
  result.metric("trace.overhead_share", median(traced_ms) / median(untraced_ms) - 1.0,
                "share", Clock::kWall);

  replay_universe_kernel(warm.universe(), result);
  return result;
}

}  // namespace perfbench
