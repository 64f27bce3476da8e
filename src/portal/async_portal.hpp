// The multi-tenant asynchronous portal front-end (paper §4.3.1 item 2, at
// production scale): many users submit overlapping derivation requests, get
// a unique id and a poll-able status back immediately, and the portal works
// through the backlog on the simulated fabric clock. The pieces:
//
//   * Intake + status: submit() answers at once — an id for admitted work,
//     an explicit shed with retry-after when the system is saturated. Every
//     request's status (queued/running/partial/done/failed/shed) is
//     poll-able via status(), and via a status URL on the fabric, exactly
//     like the compute service's own Fig. 6 protocol. The fabric document
//     is rendered from the request record when it is read.
//   * Admission control + load shedding: bounded per-tenant and global
//     queues plus an optional byte budget (services::AdmissionController).
//     Overload produces fast explicit rejections and bounded queue memory,
//     never collapse.
//   * Fair scheduling: deficit round robin across tenants
//     (services::DeficitRoundRobin), charged in actual simulated
//     milliseconds, with per-tenant weights. One tenant's flood cannot
//     starve another's trickle.
//   * Cross-request virtual-data memoization: identical (cluster, params)
//     derivations coalesce while in flight (single-flight: followers park
//     until the leader resolves) and completed catalogs are memoized in a
//     byte-budgeted services::ReplicaCache over the RLS-backed compute
//     store, so duplicates re-fetch the materialized catalog instead of
//     re-deriving it. Degraded (partial/failed) outcomes are never
//     memoized — chaos stays with the tenant that hit it. What is memoized
//     is the compute service's morphology VOTable, not the leader's merged
//     catalog. A memo hit still fetches those bytes through its tenant's
//     client, but parses them only when they differ from the bytes already
//     parsed for that output LFN; otherwise it shares one immutable table
//     with every other hit on the entry, and memo eviction drops the
//     parsed table with the bytes.
//
// Execution model: a discrete-event, stage-interleaved scheduler. step()
// runs ONE pipeline stage (images / catalog / cutouts / compute / merge) of
// one tenant's current request synchronously — one Portal::advance of the
// request's AnalysisRun, the same stage machine the synchronous
// Portal::run_analysis drives to completion. Interleaving across tenants
// happens at stage granularity. Each tenant runs its requests FIFO through
// its own portal::Portal (own resilient client, so breaker and quarantine
// state is tenant-scoped) against the shared compute service + RLS.
// Single-threaded by design — drive step()/drain() from one thread.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "portal/portal.hpp"
#include "services/admission.hpp"
#include "services/lifecycle.hpp"
#include "services/replica_cache.hpp"

namespace nvo::portal {

/// Lifecycle of one portal request. kExpired: the end-to-end deadline budget
/// ran out before the derivation finished (partial results, where built, are
/// surfaced). kCancelled: the client withdrew the request; queued work was
/// dropped cooperatively.
enum class RequestState {
  kQueued, kRunning, kPartial, kDone, kFailed, kShed, kExpired, kCancelled
};
const char* to_string(RequestState state);

struct AsyncPortalConfig {
  services::AdmissionConfig admission;
  services::DrrConfig drr;
  /// Memo store for completed catalog bytes (keyed by output LFN). Evicted
  /// entries silently fall back to a full derivation. Small budgets are a
  /// legitimate configuration — the eviction callback keeps accounting.
  services::ReplicaCacheConfig memo_cache{8ull << 20, 1};
  /// Shed, expired and cancelled requests stay poll-able (terminal state +
  /// retry-after), but only the most recent this-many such records are
  /// retained — under sustained overload the reject/abandon path must stay
  /// O(1) memory, so the oldest records age out of status() (kNotFound
  /// afterwards). All three terminal kinds share ONE bounded ring. 0 keeps
  /// every record.
  std::size_t shed_record_limit = 1024;
  /// Floor on the simulated cost charged to a tenant per scheduling unit,
  /// so zero-fabric-cost units (local merges, scheduling decisions) still
  /// rotate the round robin.
  double min_stage_charge_ms = 1.0;
  /// Host serving this portal's status URLs on the fabric.
  std::string host = "portal.nvo.sim";
  /// Base configuration for every tenant's portal (retry/breaker/cutout
  /// mode). The tracer inside is also used for request spans.
  PortalConfig portal;
};

/// Immediate answer to submit().
struct Submission {
  std::string id;             ///< empty only on invalid tenant/cluster
  bool admitted = false;
  std::string reason;         ///< shed/rejection reason ("" when admitted)
  double retry_after_ms = 0;  ///< explicit back-pressure on a shed
};

/// Poll-able snapshot of one request.
struct RequestStatus {
  std::string id;
  std::string tenant;
  std::string cluster;
  std::string params;
  RequestState state = RequestState::kQueued;
  std::string stage;          ///< current/last pipeline stage name
  double submit_ms = 0.0;     ///< simulated clock at submission
  double start_ms = 0.0;      ///< 0 until the request starts running
  double finish_ms = 0.0;     ///< 0 until terminal
  double retry_after_ms = 0.0;
  double deadline_ms = 0.0;   ///< absolute sim deadline; 0 when unbounded
  std::string error;
  bool memo_hit = false;      ///< served from the memoized catalog
  bool coalesced = false;     ///< waited on an identical in-flight derivation
  std::size_t galaxies = 0;
  std::size_t valid = 0;
  std::size_t invalid = 0;
  std::size_t archives_degraded = 0;

  bool terminal() const {
    return state == RequestState::kDone || state == RequestState::kPartial ||
           state == RequestState::kFailed || state == RequestState::kShed ||
           state == RequestState::kExpired || state == RequestState::kCancelled;
  }
  /// Submit-to-finish simulated latency; 0 until terminal.
  double latency_ms() const {
    return finish_ms > 0.0 ? finish_ms - submit_ms : 0.0;
  }
};

/// Per-tenant accounting.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t done = 0;
  std::uint64_t partial = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  double busy_ms = 0.0;        ///< simulated service charged by the DRR
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;

  std::uint64_t completed() const { return done + partial; }
};

class AsyncPortal {
 public:
  /// The federation/compute back end is shared across tenants; the fabric's
  /// clock is the portal's clock. All references must outlive the portal.
  AsyncPortal(services::HttpFabric& fabric,
              const services::Federation& federation, MorphologyService& compute,
              AsyncPortalConfig config = {});

  /// Cluster catalog shared by every tenant's portal (call before tenants).
  void add_cluster(ClusterEntry entry);
  /// Registers a tenant with a DRR weight (must be unique; call before
  /// submitting for it).
  void add_tenant(const std::string& name, double weight = 1.0);

  /// Request intake. Answers immediately: an admitted request joins the
  /// tenant's FIFO queue; a shed one gets an explicit reason + retry-after
  /// (and remains poll-able in state kShed). `params` tags the derivation
  /// variant — the memoization key is (cluster, params). `deadline_ms` is
  /// the end-to-end budget in simulated ms from now (<= 0 means unbounded).
  /// The budget rides the request through federation queries, staging
  /// fetches (clamping retry backoff) and workflow dispatch; when it runs
  /// out the request finishes kExpired with whatever partial results were
  /// built.
  Submission submit(const std::string& tenant, const std::string& cluster,
                    const std::string& params = "", double deadline_ms = 0.0);

  /// Cooperative cancellation of a non-terminal request. A queued request or
  /// parked follower terminalizes immediately (admission released, queued
  /// work dropped); a cancelled single-flight LEADER hands leadership to its
  /// longest-waiting follower, which re-runs the derivation while the rest
  /// stay parked behind it. A running request's token is flagged and every
  /// layer (federation fetches, staging, kernel tasks, DAG dispatch) unwinds
  /// at its next cooperative checkpoint — queued pool tasks drop via their
  /// cancel branch, in-flight stage-in counters return to zero, and nothing
  /// is memoized. Errors: kNotFound for unknown ids, kInvalidArgument when
  /// already terminal.
  Status cancel(const std::string& id, const std::string& reason = "client cancel");

  Expected<RequestStatus> status(const std::string& id) const;
  /// The fabric status URL for a request (served by this portal's host).
  std::string status_url(const std::string& id) const;
  /// Final catalog of a done/partial request, or the partial catalog an
  /// expired request had built when its budget ran out; nullptr otherwise.
  /// A derived request's catalog is the merged one (federation columns plus
  /// morphology). A memo hit's is the memoized morphology VOTable, one
  /// table shared by every hit on that memo entry; it stays readable for
  /// the record's lifetime even after the memo entry is evicted.
  const votable::Table* result(const std::string& id) const;

  /// Runs one scheduling unit (start a request, or advance the running
  /// request of the DRR-chosen tenant by one stage). False when no tenant
  /// has runnable work.
  bool step();
  /// Steps until idle (or max_steps); returns steps taken.
  std::size_t drain(std::size_t max_steps = static_cast<std::size_t>(-1));
  bool idle() const;

  /// Global accounting.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t done = 0;
    std::uint64_t partial = 0;
    std::uint64_t failed = 0;
    std::uint64_t expired = 0;    ///< deadline budget ran out mid-derivation
    std::uint64_t cancelled = 0;  ///< withdrawn by the client
    /// Full derivations actually executed by the compute pipeline (compute
    /// stage ran without an RLS/journal result hit). The memoization claim
    /// is recomputes < admitted requests under duplicate load.
    std::uint64_t recomputes = 0;
    std::uint64_t compute_cache_hits = 0;  ///< RLS/journal hits at compute
    std::uint64_t memo_hits = 0;           ///< portal memo fast-path serves
    /// Full VOTable parses on the memo path: one per memoized byte string,
    /// plus one per fetch whose bytes differ from the memo payload.
    /// memo_hits - memo_parses is the number of hits that shared a table.
    std::uint64_t memo_parses = 0;
    std::uint64_t coalesced = 0;           ///< followers parked on a leader
    std::uint64_t memo_evictions = 0;
    /// Gauges, derived from the scheduler's queues when stats() is called.
    std::size_t queued = 0;   ///< admitted, waiting in tenant queues
    std::size_t running = 0;  ///< tenants with a request in flight
    std::size_t waiting = 0;  ///< parked followers
    std::size_t parsed_entries = 0;  ///< memo entries with a parsed table
  };
  Stats stats() const;
  services::AdmissionStats admission_stats() const { return admission_.stats(); }
  Expected<TenantStats> tenant_stats(const std::string& name) const;
  const services::ReplicaCache& memo_cache() const { return memo_cache_; }

  /// Registers per-tenant and global portal metrics plus request-latency
  /// histograms (global and per registered tenant) under "portal.async.*".
  /// Call after add_tenant; the portal must outlive the registry's use.
  void register_metrics(obs::MetricsRegistry& registry);

  double now_ms() const;

 private:
  /// Where a request is: waiting to start, inside the Fig. 5 stage machine
  /// (its AnalysisRun names the stage), serving a memoized catalog, or
  /// terminal.
  enum class Stage { kStart, kPipeline, kMemoServe, kFinished };

  /// The names a (cluster, params) derivation goes by. Built once per
  /// registered cluster for the default derivation and shared by all of its
  /// requests; a request with params builds its own.
  struct Derivation {
    std::string memo_key;    ///< single-flight key: cluster \x1f params
    std::string out_name;    ///< compute-service output name
    std::string out_lfn;     ///< its output VOTable LFN (the memo key)
    std::string result_url;  ///< where /results serves that VOTable
  };
  std::shared_ptr<const Derivation> make_derivation(const std::string& cluster,
                                                    const std::string& params) const;

  struct Request {
    std::string id;
    std::string tenant;
    std::string params;
    std::shared_ptr<const Derivation> names;
    RequestState state = RequestState::kQueued;
    Stage stage = Stage::kStart;
    /// What the status document shows: the state and stage name as of the
    /// last publish_status (the run's stage moves on between publishes).
    /// The rest of the line is fixed by then; see status_line.
    RequestState shown_state = RequestState::kQueued;
    const char* shown_stage = "start";
    /// Deadline budget + cancellation token, carried down through federation
    /// queries, staging fetches and workflow dispatch. Each request owns an
    /// independent token.
    services::RequestContext ctx;
    bool leader = false;
    bool coalesced = false;
    bool memo_hit = false;
    bool admission_held = false;  ///< release() still owed to the controller
    double submit_ms = 0.0;
    double start_ms = 0.0;
    double finish_ms = 0.0;
    double retry_after_ms = 0.0;
    std::string error;
    /// The derivation: cluster, trace, intermediate tables and the final
    /// deliverable (`run.catalog`).
    Portal::AnalysisRun run;
    /// A memo hit's catalog, shared with the other hits on the same memo
    /// entry; `run.catalog` stays empty for memo hits.
    std::shared_ptr<const votable::Table> memo_table;
  };
  static const char* stage_name(const Request& req);
  /// The /status document for `req`, rendered from its record.
  static std::string status_line(const Request& req);

  struct Tenant {
    std::string name;
    double weight = 1.0;
    std::unique_ptr<Portal> portal;
    std::deque<std::string> queue;  ///< admitted request ids, FIFO
    std::string running;            ///< "" when idle
    TenantStats stats;
  };

  void run_unit(Tenant& tenant);
  void start_request(Tenant& tenant, const std::string& id);
  void advance(Tenant& tenant, Request& req);
  void serve_from_memo(Tenant& tenant, Request& req);
  void finish(Tenant& tenant, Request& req, RequestState state);
  /// Single-flight: parks `req` behind the in-flight leader `leader_id`.
  void park_behind(const std::string& leader_id, Request& req);
  /// Puts a promoted follower back on its tenant's queue (front or back).
  void requeue(Request& req, bool front);
  /// Terminalizes a withdrawn request as kCancelled.
  void cancel_request(Tenant& tenant, Request& req, std::string error);
  void fail_request(Tenant& tenant, Request& req, const std::string& error);
  /// Terminalizes an expired request: retry-after from the admission floors,
  /// partial results surfaced from whatever pipeline stage had completed.
  void expire_request(Tenant& tenant, Request& req, const std::string& why);
  /// Ages terminal reject/abandon records (shed, expired, cancelled) through
  /// the shared bounded ring.
  void retire_to_ring(const std::string& id);
  void release_admission(Request& req);
  void refresh_activation(Tenant& tenant);
  void memoize(const Request& req);
  /// The shared table for `bytes`, parsed at most once per memo payload.
  Expected<std::shared_ptr<const votable::Table>> memo_catalog(
      const std::string& lfn, const services::ReplicaCache::Payload& payload,
      const std::vector<std::uint8_t>& bytes, PortalTrace& trace);
  bool memo_ready(const Request& req) const;
  /// Records the state and stage the status document shows for `req`.
  void publish_status(Request& req);
  void observe_latency(const Request& req);

  services::HttpFabric& fabric_;
  services::Federation federation_;
  MorphologyService& compute_;
  AsyncPortalConfig config_;
  services::AdmissionController admission_;
  services::DeficitRoundRobin drr_;
  services::ReplicaCache memo_cache_;
  /// One memoized catalog, parsed once: the memo payload it was parsed
  /// from, the shared table and its valid/invalid tally.
  struct ParsedMemo {
    services::ReplicaCache::Payload payload;
    std::shared_ptr<const votable::Table> table;
    std::size_t valid = 0;
    std::size_t invalid = 0;
  };
  /// Output LFN -> parsed memo entry. Pruned by the memo eviction callback,
  /// so it never holds more entries than the memo; an entry whose payload
  /// was since replaced is re-parsed at its next hit.
  std::unordered_map<std::string, ParsedMemo> parsed_memo_;
  IdGenerator ids_;
  std::vector<ClusterEntry> clusters_;
  /// Registered cluster name -> its default derivation's names.
  std::unordered_map<std::string, std::shared_ptr<const Derivation>> derivations_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  /// Every poll-able request record, by id. Shared with the fabric's
  /// /status route, which renders a record's line on read, so the route
  /// stays valid however long the fabric outlives the portal.
  using RequestStore = std::unordered_map<std::string, Request>;
  std::shared_ptr<RequestStore> requests_;
  /// Single-flight registry: memo key -> leader request id.
  std::unordered_map<std::string, std::string> inflight_;
  /// Leader id -> parked follower ids (promoted when the leader resolves).
  std::unordered_map<std::string, std::vector<std::string>> followers_;
  /// Retained shed/expired/cancelled record ids, oldest first (bounded by
  /// shed_record_limit; one ring for all three terminal kinds, so none of
  /// them can grow the status map without bound).
  std::deque<std::string> terminal_ring_;
  Stats stats_;
  obs::Histogram* latency_hist_ = nullptr;
  std::map<std::string, obs::Histogram*> tenant_hists_;
  obs::MetricsRegistry* registry_ = nullptr;
};

}  // namespace nvo::portal
