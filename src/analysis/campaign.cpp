#include "analysis/campaign.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "portal/transforms.hpp"
#include "services/obs_bridge.hpp"

namespace nvo::analysis {

Campaign::Campaign(CampaignConfig config) : config_(config) {
  sim::UniverseConfig ucfg;
  ucfg.seed = config_.seed;
  ucfg.corruption_rate = config_.corruption_rate;
  universe_ = std::make_unique<sim::Universe>(
      sim::Universe::make_paper_campaign(config_.seed, config_.population_scale));
  // make_paper_campaign builds with default config; rebuild with ours when
  // the corruption rate differs.
  if (config_.corruption_rate != universe_->config().corruption_rate) {
    sim::UniverseConfig custom = universe_->config();
    custom.corruption_rate = config_.corruption_rate;
    auto rebuilt = std::make_unique<sim::Universe>(custom);
    for (const sim::Cluster& c : universe_->clusters()) rebuilt->add_cluster(c.spec);
    universe_ = std::move(rebuilt);
  }

  fabric_ = std::make_unique<services::HttpFabric>(config_.seed ^ 0xFAB);
  if (config_.tracer) config_.tracer->set_sim_clock(&fabric_->sim_clock());
  services::FederationOptions fopts;
  fopts.with_mirror = config_.enable_mirror;
  federation_ = services::register_federation(*fabric_, *universe_, fopts);
  if (!config_.chaos.empty()) services::install_chaos(*fabric_, config_.chaos);
  grid_ = std::make_unique<grid::Grid>(grid::make_paper_grid());
  rls_ = std::make_unique<pegasus::ReplicaLocationService>();
  tc_ = std::make_unique<pegasus::TransformationCatalog>();

  if (!config_.journal_path.empty()) {
    auto journal = grid::CheckpointJournal::open(config_.journal_path);
    if (journal.ok()) {
      journal_ = std::move(journal.value());
    } else {
      // A campaign without durability is still a campaign; warn and run.
      log_warn("campaign", "checkpoint journal unavailable: " +
                               journal.error().to_string());
    }
  }

  portal::ComputeServiceConfig scfg;
  scfg.seed = config_.seed ^ 0x5E47;
  scfg.compute_threads = config_.compute_threads;
  scfg.planner.site_policy = config_.site_policy;
  scfg.retry = config_.retry;
  scfg.breaker = config_.breaker;
  scfg.replica_cache = config_.image_cache;
  scfg.tracer = config_.tracer;
  scfg.journal = journal_.get();
  scfg.abort_after_nodes = config_.chaos.kill_after_node_completions();
  scfg.failure.site_outage_at_s = config_.chaos.site_outages();
  scfg.rescue_rounds = config_.rescue_rounds;
  scfg.hedge_stage_ins = config_.hedge_stage_ins;
  if (!federation_.mirror_host.empty()) {
    scfg.mirrors[services::Federation::kMastHost] = federation_.mirror_host;
  }
  compute_ = std::make_unique<portal::MorphologyService>(*fabric_, *grid_, *rls_,
                                                         *tc_, scfg);

  portal::PortalConfig pcfg;
  pcfg.cutout_query = config_.cutout_mode;
  pcfg.retry = config_.retry;
  pcfg.breaker = config_.breaker;
  pcfg.tracer = config_.tracer;
  portal_ = std::make_unique<portal::Portal>(*fabric_, federation_, *compute_, pcfg);
  for (const sim::Cluster& c : universe_->clusters()) {
    portal::ClusterEntry entry;
    entry.name = c.name();
    entry.position = c.center();
    entry.redshift = c.redshift();
    entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
    portal_->add_cluster(entry);
  }
}

void Campaign::register_metrics(obs::MetricsRegistry& registry) const {
  services::register_metrics(registry, *fabric_, "fabric");
  services::register_metrics(registry, portal_->client(), "client.portal");
  compute_->register_metrics(registry);
  if (journal_) {
    const grid::CheckpointJournal* j = journal_.get();
    registry.register_counter("checkpoint.records_loaded", [j] {
      return static_cast<double>(j->stats().records_loaded);
    });
    registry.register_counter("checkpoint.truncated_records", [j] {
      return static_cast<double>(j->stats().truncated_records);
    });
    registry.register_counter("checkpoint.appends", [j] {
      return static_cast<double>(j->stats().appends);
    });
  }
}

Expected<ClusterOutcome> Campaign::run_cluster(const std::string& name) {
  auto outcome = portal_->run_analysis(name);
  if (!outcome.ok()) return outcome.error();

  ClusterOutcome out;
  out.name = name;
  out.portal_trace = outcome->trace;
  out.galaxies = outcome->trace.galaxies;
  out.valid = outcome->trace.valid;
  out.invalid = outcome->trace.invalid;

  out.retries = outcome->trace.retries;
  out.breaker_trips = outcome->trace.breaker_trips;
  out.failovers = outcome->trace.failovers;
  out.archives_degraded = outcome->trace.archives_degraded();

  // Looked up by the id carried in the portal trace, not last_trace():
  // interleaved runs from other front-ends (the async portal) may have
  // pushed newer requests through the shared service in the meantime.
  if (const portal::ServiceTrace* trace =
          compute_->trace(outcome->trace.compute_request_id)) {
    out.compute_jobs = trace->execution.compute_jobs;
    out.transfer_jobs = trace->execution.transfer_jobs;
    out.register_jobs = trace->execution.register_jobs;
    out.makespan_seconds = trace->execution.makespan_seconds;
    out.retries += trace->staging_retries;
    out.breaker_trips += trace->staging_breaker_trips;
    out.failovers += trace->staging_failovers;
    out.integrity_failures = trace->staging_integrity_failures;
    out.quarantine_skips = trace->staging_quarantine_skips;
    out.resumed_from_journal = trace->journal_hit;
    out.rows_resumed = trace->rows_resumed;
    out.nodes_resumed = trace->nodes_resumed;
  }
  if (const std::string* xml =
          compute_->result_xml(portal::output_votable_lfn(name))) {
    out.catalog_xml = *xml;
  }

  const sim::Cluster* cluster = universe_->find_cluster(name);
  auto dressler = analyze_cluster(outcome->catalog, cluster->center());
  if (dressler.ok()) {
    out.dressler = std::move(dressler.value());
  }
  return out;
}

Expected<CampaignReport> Campaign::run() {
  CampaignReport report;
  // Counters start clean for this run. The simulated clock is NOT touched
  // (reset_metrics no longer moves time), so breaker cool-downs and chaos
  // fault windows keep their phase across consecutive runs.
  fabric_->reset_metrics();
  report.min_galaxies = SIZE_MAX;
  report.clusters.reserve(universe_->clusters().size());
  for (const sim::Cluster& c : universe_->clusters()) {
    auto outcome = run_cluster(c.name());
    if (!outcome.ok()) return outcome.error();
    const ClusterOutcome& o = outcome.value();
    report.total_galaxies += o.galaxies;
    report.min_galaxies = std::min(report.min_galaxies, o.galaxies);
    report.max_galaxies = std::max(report.max_galaxies, o.galaxies);
    report.total_compute_jobs += o.compute_jobs;
    report.total_transfer_jobs += o.transfer_jobs;
    report.total_register_jobs += o.register_jobs;
    report.total_sim_seconds += o.makespan_seconds + o.portal_trace.total_ms() / 1000.0;
    if (o.dressler.relation_detected()) ++report.clusters_with_relation;
    report.total_retries += o.retries;
    report.total_breaker_trips += o.breaker_trips;
    report.total_failovers += o.failovers;
    report.total_integrity_failures += o.integrity_failures;
    report.total_quarantine_skips += o.quarantine_skips;
    if (o.resumed_from_journal) ++report.clusters_resumed;
    report.total_rows_resumed += o.rows_resumed;
    report.total_nodes_resumed += o.nodes_resumed;
    report.archives_degraded += o.archives_degraded;
    for (const portal::ArchiveStatus& a : o.portal_trace.archives) {
      if (a.degraded()) report.degradations.push_back({o.name, a});
    }
    report.clusters.push_back(std::move(outcome.value()));
  }
  // Every processed galaxy corresponds to one cutout image; the fabric
  // metrics carry total bytes over the simulated WAN.
  std::size_t images = 0;
  for (const ClusterOutcome& o : report.clusters) images += o.galaxies;
  report.total_images_fetched = images;
  report.total_bytes_transferred = fabric_->metrics().bytes_transferred;
  report.pools_used = grid_->sites().size();
  return report;
}

std::string CampaignReport::to_text() const {
  std::string out;
  out += "cluster    galaxies  valid  invalid  jobs  transfers  retries  makespan(sim s)  relation\n";
  for (const ClusterOutcome& c : clusters) {
    out += format("%-9s %8zu %6zu %8zu %5zu %10zu %8llu %16.1f  %s\n", c.name.c_str(),
                  c.galaxies, c.valid, c.invalid, c.compute_jobs, c.transfer_jobs,
                  static_cast<unsigned long long>(c.retries), c.makespan_seconds,
                  c.dressler.relation_detected() ? "YES" : "no");
  }
  out += format("clusters: %zu, galaxies: %zu (min %zu, max %zu)\n", clusters.size(),
                total_galaxies, min_galaxies, max_galaxies);
  out += format("compute jobs: %zu, transfers: %zu, registrations: %zu\n",
                total_compute_jobs, total_transfer_jobs, total_register_jobs);
  out += format("images fetched: %zu, bytes over fabric: %zu\n", total_images_fetched,
                total_bytes_transferred);
  out += format("pools used: %zu, total simulated time: %.1f s\n", pools_used,
                total_sim_seconds);
  out += format("retries: %llu, breaker trips: %llu, mirror failovers: %llu\n",
                static_cast<unsigned long long>(total_retries),
                static_cast<unsigned long long>(total_breaker_trips),
                static_cast<unsigned long long>(total_failovers));
  if (total_integrity_failures > 0 || total_quarantine_skips > 0) {
    out += format("corruptions caught: %llu, quarantine reroutes: %llu\n",
                  static_cast<unsigned long long>(total_integrity_failures),
                  static_cast<unsigned long long>(total_quarantine_skips));
  }
  if (clusters_resumed > 0 || total_rows_resumed > 0 || total_nodes_resumed > 0) {
    out += format(
        "resumed from journal: %zu clusters, %zu rows, %zu DAG nodes\n",
        clusters_resumed, total_rows_resumed, total_nodes_resumed);
  }
  if (!degradations.empty()) {
    out += format("degraded archive interactions: %zu\n", archives_degraded);
    for (const Degradation& d : degradations) {
      out += format("  %s/%s (%s): attempts %llu, retries %llu, skipped: %s\n",
                    d.cluster.c_str(), d.status.archive.c_str(),
                    d.status.endpoint.c_str(),
                    static_cast<unsigned long long>(d.status.attempted),
                    static_cast<unsigned long long>(d.status.retries),
                    d.status.skipped_reason.c_str());
    }
  }
  out += format("clusters showing the density-morphology relation: %zu / %zu\n",
                clusters_with_relation, clusters.size());
  return out;
}

}  // namespace nvo::analysis
