// The galaxy-morphology compute web service (paper §4.3, Fig. 6): "the type
// of highly-specialized service that we expect to see when the NVO
// environment reaches its most mature state." Protocol, as in the paper:
//
//   1. The portal POSTs an input VOTable + desired output name; the service
//      assigns a unique request id and immediately returns a status URL.
//   2. The service checks the RLS for the output VOTable; a hit completes
//      the request at once (result caching).
//   3. Otherwise it downloads every galaxy image into its local cache and
//      registers them in the RLS (so later requests use GridFTP-class local
//      access instead of SIA).
//   4. The input VOTable is transformed into VDL derivations (the
//      derivation file's contents, defined straight into a Virtual Data
//      Catalog); Chimera composes the abstract workflow; Pegasus
//      reduces/maps it; DAGMan executes it (simulated timing + real
//      morphology computation).
//   5. The output VOTable is registered in the RLS; polls of the status URL
//      now return "job completed" plus the result URL.
//
// Per-galaxy failures (corrupted cutouts) yield validity-flagged rows, not
// request failures (§4.3.1 item 4).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "core/galmorph.hpp"
#include "grid/checkpoint.hpp"
#include "grid/dagman.hpp"
#include "grid/grid.hpp"
#include "grid/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pegasus/planner.hpp"
#include "pegasus/rls.hpp"
#include "pegasus/tc.hpp"
#include "services/http.hpp"
#include "services/lifecycle.hpp"
#include "services/replica_cache.hpp"
#include "services/resilience.hpp"
#include "vds/chimera.hpp"
#include "vds/provenance.hpp"
#include "votable/table.hpp"

namespace nvo::portal {

struct ComputeServiceConfig {
  std::string host = "galmorph.isi.sim";  ///< service host on the fabric
  std::string cache_site = "isi";         ///< grid site holding the image cache
  core::GalMorphArgs default_args;        ///< cosmology/photometry defaults
  pegasus::PlannerConfig planner;         ///< site/replica policies etc.
  grid::JobCostModel cost;                ///< simulated job durations
  grid::FailureModel failure;             ///< injected grid failures
  std::size_t compute_threads = 2;        ///< real kernel parallelism
  std::uint64_t seed = 17;
  services::RetryPolicy retry;            ///< image staging / poll tolerance
  services::BreakerPolicy breaker;
  /// Failover mirrors for staging fetches (archive host -> mirror host).
  std::map<std::string, std::string> mirrors;
  /// Byte-budgeted LRU replica store backing the image cache. Evicted LFNs
  /// are deregistered from the RLS/grid so plans never rely on them.
  services::ReplicaCacheConfig replica_cache;
  /// Optional trace-span sink (staging, planning, DAGMan nodes, kernels).
  /// Must outlive the service.
  obs::Tracer* tracer = nullptr;
  /// Optional durable checkpoint journal (must outlive the service). When
  /// set, staged-image registrations, DAG node completions, and per-galaxy
  /// morphology rows are persisted as they happen, and process() resumes
  /// from whatever the journal already holds: journaled rows skip staging
  /// and the kernel, journaled node completions are cut out of the DAG via
  /// the rescue machinery, and the merged report covers both halves.
  grid::CheckpointJournal* journal = nullptr;
  /// Chaos kill injection: abort DAG execution with kAborted once this many
  /// node completions have been counted across the service's lifetime
  /// (0 disables). Simulates the submit host dying mid-DAG so the
  /// checkpoint/resume path can be exercised deterministically.
  std::size_t abort_after_nodes = 0;
  /// Rescue-DAG rounds after a failed execution (0 preserves the old
  /// behavior: no in-request rescue; journal resume still performs its
  /// single implicit round). Each round rebuilds the unfinished portion,
  /// re-maps it off any pools the executor has latched dead (site-outage
  /// chaos), and reruns it on the same sim engine.
  std::size_t rescue_rounds = 0;
  /// Hedged stage-ins: once enough fetch durations have been observed, a
  /// fetch slower than the hedge delay — the 0.75 quantile of a
  /// service-level rolling window of primary durations (learned across
  /// requests, so a warm service protects a new request's first fetches
  /// too) — is re-issued against the archive's registered mirror. First
  /// verified success wins: the cutout's effective arrival on the stage-in
  /// channels is min(primary, delay + hedge), and the loser's bytes are
  /// charged to `hedge_wasted_bytes` (the stream is cancelled, but its WAN
  /// transfer already happened). Requires a mirror in `mirrors` for the
  /// archive host; fetches without one are never hedged.
  bool hedge_stage_ins = false;
};

/// Everything measured about one request (drives the Fig. 6 benchmark).
struct ServiceTrace {
  std::string request_id;
  std::string cluster_name;
  bool cache_hit = false;          ///< output VOTable already in the RLS
  bool journal_hit = false;        ///< catalog served from the checkpoint journal
  std::size_t galaxies = 0;
  std::size_t images_fetched = 0;  ///< downloaded via SIA this request
  std::size_t images_cached = 0;   ///< served from the local cache
  double image_fetch_sim_ms = 0.0; ///< simulated SIA download time
  std::uint64_t staging_retries = 0;    ///< HTTP re-attempts while staging
  std::uint64_t staging_failovers = 0;  ///< staging fetches served by a mirror
  std::uint64_t staging_breaker_trips = 0;
  std::uint64_t staging_integrity_failures = 0;  ///< corrupted payloads caught
  std::uint64_t staging_quarantine_skips = 0;    ///< fetches rerouted to mirror
  std::uint64_t hedged_fetches = 0;  ///< stage-ins that issued a mirror hedge
  std::uint64_t hedge_wins = 0;      ///< hedges whose arrival beat the primary
  /// Loser-transfer bytes: WAN traffic the slower copy of a hedged fetch
  /// had already moved when it was cancelled. The honest cost of hedging.
  std::size_t hedge_wasted_bytes = 0;
  double hedge_delay_ms = 0.0;       ///< last quantile-derived hedge delay
  /// Archive payload bytes fetched while staging (primary + hedge streams).
  std::size_t staging_wan_bytes = 0;
  /// p99 of effective per-fetch stage-in durations (simulated ms) — the
  /// tail the hedging defends; 0 when nothing was fetched.
  double stage_in_p99_ms = 0.0;
  std::size_t rows_resumed = 0;   ///< morphology rows loaded from the journal
  std::size_t nodes_resumed = 0;  ///< DAG nodes skipped as journal-completed
  double vdl_bytes = 0.0;
  double compose_wall_ms = 0.0;
  double plan_wall_ms = 0.0;
  /// Real morphology computation. With pipelined staging the kernels run
  /// concurrently with image fetches, so this measures the full overlapped
  /// stage-and-compute window (fetch start to last kernel done). The three
  /// phases below split it on the request thread; they sum to it.
  double kernel_wall_ms = 0.0;
  /// Staging loop: fetches, cache admission, kernel submission.
  double stage_wall_ms = 0.0;
  /// Compose + plan + execute (the control plane), after staging.
  double control_wall_ms = 0.0;
  /// The closing pool barrier: running still-queued kernels on the request
  /// thread, then waiting for the workers' last ones.
  double drain_wall_ms = 0.0;
  /// Peak bytes of staged cutouts pinned for kernels not yet finished;
  /// at most max(the staging byte bound, largest single cutout).
  std::size_t staging_inflight_bytes_hwm = 0;
  pegasus::PlanResult plan;
  grid::RunReport execution;       ///< simulated DAGMan run
  std::size_t valid_results = 0;
  std::size_t invalid_results = 0;
  /// End-to-end simulated latency the portal would observe (zero on a
  /// cache hit): the workflow makespan. Staging arrivals are folded into it
  /// as per-node ready times, so fetch latency counts only where it
  /// extends the critical path; image_fetch_sim_ms is the serial fetch bill.
  double total_sim_seconds = 0.0;
};

/// The stage-ins of one request as the sim clock saw them: each fetched
/// cutout's LFN and its effective fetch duration in ms (after hedging), in
/// issue order.
using FetchTimeline = std::vector<std::pair<std::string, double>>;

/// Ready-on-data times (node id -> sim seconds) for DagManSim::set_ready_times.
/// The fetches are list-scheduled in issue order onto the service's 8
/// concurrent stage-in channels (each takes the earliest-free channel) to
/// give every cutout an arrival time. A compute node is ready when its last
/// raw input (`plan.data_inputs`) lands; a transfer sourced at `cache_site`
/// waits for the file it ships. Inputs absent from `fetches` (cache hits,
/// journal replays) are resident at t=0 and impose no ready time.
std::map<std::string, double> stage_in_ready_times(const FetchTimeline& fetches,
                                                   const pegasus::PlanResult& plan,
                                                   const std::string& cache_site);

class MorphologyService {
 public:
  /// Registers /status and /results routes on the fabric. The grid, RLS,
  /// and TC references must outlive the service; galMorph is installed at
  /// every grid site in the TC if absent.
  MorphologyService(services::HttpFabric& fabric, grid::Grid& grid,
                    pegasus::ReplicaLocationService& rls,
                    pegasus::TransformationCatalog& tc, ComputeServiceConfig config);

  /// The paper's client call: galMorphCompute(vot, outVOTName) -> status
  /// URL. The input table needs `id`, `redshift`, and `cutout_url` columns;
  /// `out_name` is the logical name of the output VOTable (named after the
  /// cluster). The optional request context carries the caller's remaining
  /// deadline budget and cancellation token through staging fetches, kernel
  /// tasks and DAG dispatch; an expired budget fails the request with state
  /// "expired" (journal rows persisted so far are kept — a resubmission
  /// resumes instead of recomputing), a cancelled token with "cancelled".
  /// Neither outcome materializes or memoizes a catalog.
  Expected<std::string> gal_morph_compute(const votable::Table& input,
                                          const std::string& out_name,
                                          const services::RequestContext& ctx = {});

  /// Client-side poll of a status URL.
  struct PollResult {
    std::string state;  ///< "running", "completed", "failed"
    std::string result_url;
    std::vector<std::string> messages;
  };
  Expected<PollResult> poll(const std::string& status_url) const;

  /// Client-side fetch of a completed result.
  Expected<votable::Table> fetch_result(const std::string& result_url) const;

  /// Raw XML bytes of a materialized output VOTable (exactly what /results
  /// serves); nullptr when the LFN is unknown. Byte-identity checks compare
  /// these rather than re-serialized tables.
  const std::string* result_xml(const std::string& out_lfn) const;

  /// Trace lookup for benchmarks (by request id). Null when unknown.
  const ServiceTrace* trace(const std::string& request_id) const;
  /// Trace of the most recent request.
  const ServiceTrace* last_trace() const;

  /// Provenance of everything this service has materialized: per-galaxy
  /// results and output VOTables, with the derivation parameters and
  /// execution sites (GriPhyN's "virtual data and provenance").
  const vds::ProvenanceCatalog& provenance() const { return provenance_; }

  const ComputeServiceConfig& config() const { return config_; }

  /// True once the one-shot abort_after_nodes chaos kill has fired.
  bool kill_fired() const { return kill_fired_; }

  /// The service's resilient HTTP client (staging + poll tolerance state).
  const services::ResilientClient& client() const { return client_; }

  /// The sharded LRU replica store (hit/miss/eviction/bytes metrics).
  const services::ReplicaCache& replica_cache() const { return cache_; }

  /// The service-lifetime kernel pool (queue/active/idle observables).
  /// Const because nothing outside the service should submit to it. The
  /// one deliberate exception is a test seam: lifecycle_test's BacklogGate
  /// const_casts it to park the workers on a gate, so a cluster's kernels
  /// stay queued behind them (the pool is FIFO, so they queue after the
  /// gate tasks).
  const grid::ThreadPool& pool() const { return pool_; }

  /// Registers this service's metrics (staging client, replica cache,
  /// kernel pool) under "client.compute.*", "cache.replica.*" and "pool.*",
  /// plus "staging.inflight" and "staging.inflight_bytes" (live count and
  /// bytes of staged-but-uncomputed images). The service must outlive the
  /// registry's use.
  void register_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct RequestRecord {
    std::string id;
    std::string state = "running";
    std::vector<std::string> messages;
    std::string result_lfn;
    ServiceTrace trace;
  };

  /// Per-request state shared by the phases below (and, by reference, by
  /// the request's kernel tasks). Defined in compute_service.cpp.
  struct Request;
  /// Defers deregistration of this request's evicted replicas until the
  /// request is done with them (see defer_evictions_).
  struct EvictionDeferral;

  /// One Fig. 6 request, steps (2)-(5), as the phases below in order.
  Status process(RequestRecord& record, const votable::Table& input,
                 const std::string& out_name, const services::RequestContext& ctx);
  /// (2) The output VOTable is already materialized (RLS or checkpoint
  /// journal): completes the request and returns true.
  bool serve_materialized(RequestRecord& record, const std::string& out_lfn,
                          obs::Span& req);
  /// Resume: re-registers the journal's staged images so the planner sees
  /// the replica state of the original run.
  void replay_journal_images(const Request& rq);
  /// (3) Stages every cutout through the replica cache and submits its
  /// kernel to the pool the moment the bytes are resident.
  Status stage_and_compute(Request& rq);
  /// One archive fetch, hedged against the mirror when it straggles. Sets
  /// `effective_ms` to the winner's arrival on the stage-in channels.
  Expected<services::HttpResponse> fetch_cutout(ServiceTrace& trace,
                                                const std::string& url,
                                                double& effective_ms);
  /// Runs galaxy `i`'s kernel on the pool. Blocks while admitting the
  /// payload would pin more staged bytes than kStagingByteBound (256 MB,
  /// independent of the replica cache's byte budget), unless nothing is in
  /// flight. A whole campaign fits, so staging runs ahead of the pool and
  /// the request thread reaches compose with the backlog still queued;
  /// pinned cutout memory stays within the cache budget plus the bound
  /// whatever the cluster size.
  void submit_kernel(Request& rq, std::size_t i, services::ReplicaCache::Payload payload);
  /// (4a, 4b) VDL generation and Chimera composition.
  Expected<vds::Dag> compose_workflow(Request& rq);
  /// (4c) Pegasus planning into rq.trace.plan.
  Status plan_workflow(Request& rq, vds::Dag abstract);
  /// (4d) Simulated DAGMan execution with ready-on-data dispatch, journal
  /// resume and rescue rounds, then commit and provenance.
  Status execute_workflow(Request& rq);
  /// DAGMan node callback: releases the galaxy's catalog row, journals the
  /// completion and fires the abort_after_nodes chaos kill.
  Status on_node_final(Request& rq, const grid::NodeResult& nr);
  /// Records one retrospective "dag.node" span per executed node.
  void record_node_spans(std::uint64_t dag_span, const grid::RunReport& report) const;
  /// (5) Finalizes every row, then registers and exposes the output VOTable.
  void materialize_catalog(Request& rq);

  services::HttpFabric& fabric_;
  grid::Grid& grid_;
  pegasus::ReplicaLocationService& rls_;
  pegasus::TransformationCatalog& tc_;
  ComputeServiceConfig config_;
  // Mutable: poll/fetch_result are logically const reads but go through the
  // client's retry/breaker state.
  mutable services::ResilientClient client_;
  IdGenerator ids_;
  vds::ProvenanceCatalog provenance_;
  // Service-lifetime compute pool: worker threads persist across requests
  // (and with them the kernel's thread-local workspaces), instead of being
  // spawned and joined inside every request. Each galaxy is one job whose
  // kernel runs serially on the worker that picked it up.
  grid::ThreadPool pool_;
  // Sharded byte-budgeted LRU image store replacing the old unbounded map.
  // Entries are registered in the RLS/grid on insert and deregistered on
  // eviction, so Pegasus reduction sees exactly what is resident.
  services::ReplicaCache cache_;
  // Evictions of LFNs staged by the active request are deferred until the
  // request's plan is committed: the RLS must keep advertising a replica
  // the in-flight workflow references, or a starved budget would fail the
  // feasibility check instead of merely running cache-cold. Flushed (for
  // entries still non-resident) when the request completes.
  bool defer_evictions_ = false;
  std::unordered_set<std::string> request_lfns_;
  std::vector<std::string> deferred_evictions_;
  /// Node completions across the service's lifetime; drives the chaos
  /// kill counter (ComputeServiceConfig::abort_after_nodes).
  std::size_t nodes_completed_total_ = 0;
  /// The abort_after_nodes kill has fired. One-shot: only the request in
  /// flight when the threshold is crossed aborts; subsequent requests
  /// (other tenants through a shared service) proceed normally.
  bool kill_fired_ = false;
  /// Staged-but-uncomputed images currently pinned for pending kernel
  /// tasks, and their bytes (the byte bound's live occupancy, see
  /// submit_kernel). Atomic so the "staging.inflight" and
  /// "staging.inflight_bytes" gauges can read them while pool workers
  /// decrement.
  std::atomic<std::size_t> staging_inflight_{0};
  std::atomic<std::size_t> staging_inflight_bytes_{0};
  /// Rolling window of primary (unhedged) stage-in durations across the
  /// service's lifetime — the sample set the hedge delay is derived from.
  /// Service-level on purpose: the delay learned on one request protects
  /// the next one's earliest fetches, instead of re-warming per request.
  /// Bounded (oldest dropped) so the delay tracks current archive weather.
  std::vector<double> hedge_history_;

  // Shared with fabric handler closures.
  struct State {
    std::map<std::string, RequestRecord> requests;          // id -> record
    std::map<std::string, std::string> results;             // lfn -> VOTable XML
    std::vector<std::string> order;                         // request ids, oldest first
  };
  std::shared_ptr<State> state_;
};

}  // namespace nvo::portal
