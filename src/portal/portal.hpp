// The user portal (paper §4.2, Fig. 5): cluster selection from an internal
// catalog, large-scale image search over three SIA archives, galaxy-catalog
// assembly from two Cone Search services joined with the generic table-join
// library, cutout-reference retrieval via SIA, submission to the compute
// web service with one status poll, and the final merge of computed
// morphology back into the catalog. Both the paper's per-galaxy SIA loop
// and the batched single-cone variant it wishes for are implemented.
//
// The five stages form one stage machine (Portal::advance over an
// AnalysisRun). Two drivers share it: run_analysis steps a run to
// completion, and AsyncPortal advances one run by one stage per scheduling
// unit (the sync-vs-async submission distinction of §4.3.1 item 2).
#pragma once

#include <string>
#include <vector>

#include "common/expected.hpp"
#include "obs/trace.hpp"
#include "portal/compute_service.hpp"
#include "services/federation.hpp"
#include "services/http.hpp"
#include "services/resilience.hpp"
#include "sky/coords.hpp"
#include "votable/table.hpp"

namespace nvo::portal {

/// One entry of the portal's internal cluster catalog ("the portal first
/// allows a user to select from a list of galaxy clusters ... selection
/// causes the portal to look up the cluster's spherical position in an
/// internal catalog").
struct ClusterEntry {
  std::string name;
  sky::Equatorial position;
  double redshift = 0.0;
  double search_radius_deg = 0.2;
};

/// How the portal retrieves cutout access references (the application
/// bottleneck of §4.2). kPerGalaxy is the paper's actual loop — one SIA
/// cone per galaxy. kWideCone is the single cluster-wide query it wished
/// for. kCoalesced groups nearby galaxies into spatial patches and issues
/// one query per patch: round-trips amortize like the wide cone while each
/// response stays proportional to the patch, not the cluster.
enum class CutoutQueryMode { kPerGalaxy, kCoalesced, kWideCone };

struct PortalConfig {
  CutoutQueryMode cutout_query = CutoutQueryMode::kCoalesced;
  services::RetryPolicy retry;        ///< per-request tolerance for all queries
  services::BreakerPolicy breaker;
  /// Optional trace-span sink for the request path (null = no tracing).
  /// Must outlive the portal.
  obs::Tracer* tracer = nullptr;
};

/// Outcome of one archive interaction within an analysis run: how hard the
/// resilience layer had to work and whether the stage ultimately got its
/// data. `skipped_reason` is non-empty when the stage continued without this
/// archive (graceful degradation).
struct ArchiveStatus {
  std::string archive;             ///< human name ("NED", "CNOC", ...)
  std::string endpoint;            ///< base URL queried
  std::uint64_t attempted = 0;     ///< HTTP attempts issued (incl. retries)
  std::uint64_t succeeded = 0;     ///< attempts that returned cleanly
  std::uint64_t retries = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t failovers = 0;     ///< requests served by the mirror
  std::size_t rows = 0;            ///< table rows / records contributed
  std::string skipped_reason;      ///< "" when the archive delivered

  bool degraded() const { return !skipped_reason.empty(); }
};

/// Per-stage accounting for one analysis run (simulated milliseconds from
/// the fabric's performance models, plus counts).
struct PortalTrace {
  double image_search_ms = 0.0;   ///< the 3 large-scale SIA queries
  double catalog_build_ms = 0.0;  ///< the 2 cone searches + join
  double cutout_query_ms = 0.0;   ///< SIA metadata queries for cutout refs
  std::size_t cutout_queries = 0;
  double compute_wait_ms = 0.0;   ///< simulated service latency + polls
  std::size_t polls = 0;
  double merge_ms = 0.0;          ///< final join (local, wall-clock)
  std::size_t galaxies = 0;
  std::size_t valid = 0;
  std::size_t invalid = 0;
  /// Compute-service request id ("req-N") of this run's submission; empty
  /// when the run failed before reaching the compute stage. Callers use
  /// MorphologyService::trace(id) with this instead of last_trace(), which
  /// is wrong once runs from several portals interleave on one service.
  std::string compute_request_id;

  // Resilience accounting, summed over the portal's archive interactions.
  std::vector<ArchiveStatus> archives;
  std::uint64_t retries = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t failovers = 0;

  double total_ms() const {
    return image_search_ms + catalog_build_ms + cutout_query_ms + compute_wait_ms +
           merge_ms;
  }
  /// Sets valid/invalid from the catalog's `valid` column; a row without a
  /// true value counts as invalid.
  void tally(const votable::Table& catalog);
  /// Archives that did not deliver (skipped or failed over entirely).
  std::size_t archives_degraded() const {
    std::size_t n = 0;
    for (const ArchiveStatus& a : archives) n += a.degraded() ? 1 : 0;
    return n;
  }
};

class Portal {
 public:
  Portal(services::HttpFabric& fabric, const services::Federation& federation,
         MorphologyService& compute, PortalConfig config = {});

  /// Populates the internal cluster list.
  void add_cluster(ClusterEntry entry);
  const std::vector<ClusterEntry>& clusters() const { return clusters_; }

  /// Stage: the three large-scale image searches (DSS optical, ROSAT and
  /// Chandra X-ray). Returns access URLs; per Fig. 5, "links to these
  /// images are returned to the user".
  struct ImageLinks {
    std::vector<std::string> optical;
    std::vector<std::string> xray;
  };
  Expected<ImageLinks> find_large_scale_images(const std::string& cluster_name,
                                               PortalTrace* trace = nullptr);

  /// Stage: galaxy catalog assembly — NED + CNOC cone searches joined on id
  /// via the generic join library.
  Expected<votable::Table> build_galaxy_catalog(const std::string& cluster_name,
                                                PortalTrace* trace = nullptr);

  /// Stage: merge cutout access references into the catalog (adds the
  /// `cutout_url` column). Honors config.cutout_query.
  Expected<votable::Table> attach_cutout_refs(votable::Table catalog,
                                              const std::string& cluster_name,
                                              PortalTrace* trace = nullptr);

  /// Result of a full §2-strategy run: images, catalog, cutouts, compute,
  /// merge.
  ///
  /// Unlike an Expected<...>, the outcome always carries the PortalTrace —
  /// on failure the per-archive ArchiveStatus entries accumulated up to the
  /// failing stage survive, so a dual-archive outage is diagnosable from
  /// the outcome instead of from a bare error string. `ok()`, `error()`
  /// and `operator->` keep the former Expected call sites working.
  struct AnalysisOutcome {
    votable::Table catalog;  ///< galaxy catalog + morphology columns
    ImageLinks images;
    PortalTrace trace;       ///< populated even when the run fails
    Status status;           ///< Ok when the full pipeline delivered

    bool ok() const { return status.ok(); }
    const Error& error() const { return status.error(); }
    AnalysisOutcome* operator->() { return this; }
    const AnalysisOutcome* operator->() const { return this; }
  };

  /// One Fig. 5 request in flight: the outcome built so far plus what the
  /// next stage needs. A terminal stage names how the run ended; only the
  /// compute poll's "cancelled"/"expired" answers end it as kCancelled or
  /// kExpired, every other error ends it as kFailed.
  struct AnalysisRun : AnalysisOutcome {
    enum class Stage {
      kImages, kCatalog, kCutouts, kCompute, kMerge,
      kDone, kFailed, kCancelled, kExpired
    };
    std::string cluster;
    std::string out_name;        ///< compute-service output name
    Stage stage = Stage::kImages;
    votable::Table with_refs;    ///< federation catalog (+ cutout_url column)
    votable::Table morphology;   ///< compute-service output

    bool finished() const { return stage >= Stage::kDone; }
  };

  /// Runs exactly one stage of `run` and moves it to the next stage, or to
  /// a terminal one. `ctx` rides the compute submission (deadline budget
  /// and cancellation token); a driver that wants it on the federation
  /// queries too scopes it onto client(). A finished run is left untouched.
  void advance(AnalysisRun& run, const services::RequestContext& ctx = {});

  /// Drives a run of `cluster_name` through every stage.
  AnalysisOutcome run_analysis(const std::string& cluster_name);

  /// Fetches a compute-service result document through the portal's client
  /// (retry, breaker, digest verification); a non-200 answer is an error.
  Expected<services::HttpResponse> fetch_result(const std::string& url);

  /// The portal's resilient HTTP client (retry/breaker/failover state).
  services::ResilientClient& client() { return client_; }

 private:
  const ClusterEntry* find_cluster(const std::string& name) const;

  /// Snapshot-diff helper: builds an ArchiveStatus from the client's
  /// per-endpoint stats accumulated since `before`.
  ArchiveStatus archive_status(const std::string& archive,
                               const std::string& base_url,
                               const services::EndpointStats& before) const;
  /// Appends `status` to the trace and folds its counters into the totals.
  static void record_archive(PortalTrace* trace, ArchiveStatus status);
  /// The compute stage: filter, gal_morph_compute, one poll, fetch.
  void compute_stage(AnalysisRun& run, const services::RequestContext& ctx);

  services::HttpFabric& fabric_;
  services::Federation federation_;
  MorphologyService& compute_;
  PortalConfig config_;
  services::ResilientClient client_;
  std::vector<ClusterEntry> clusters_;
};

const char* to_string(Portal::AnalysisRun::Stage stage);

}  // namespace nvo::portal
