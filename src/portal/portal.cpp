#include "portal/portal.hpp"

#include <chrono>
#include <cmath>
#include <map>
#include <utility>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "services/cone_search.hpp"
#include "services/sia.hpp"
#include "sky/spatial_index.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"

namespace nvo::portal {

namespace {
double wall_ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

std::string host_of(const std::string& base_url) {
  auto url = services::Url::parse(base_url);
  return url.ok() ? url->host : std::string();
}

services::EndpointStats stats_snapshot(const services::ResilientClient& client,
                                       const std::string& base_url) {
  const services::EndpointStats* p = client.stats_for(host_of(base_url));
  return p ? *p : services::EndpointStats{};
}

void end_run(Portal::AnalysisRun& run, Portal::AnalysisRun::Stage terminal,
             Error error) {
  run.stage = terminal;
  run.status = std::move(error);
}
}  // namespace

Portal::Portal(services::HttpFabric& fabric, const services::Federation& federation,
               MorphologyService& compute, PortalConfig config)
    : fabric_(fabric),
      federation_(federation),
      compute_(compute),
      config_(std::move(config)),
      client_(fabric, config_.retry, config_.breaker, "portal") {
  if (!federation_.mirror_host.empty()) {
    client_.add_mirror(services::Federation::kMastHost, federation_.mirror_host);
  }
}

ArchiveStatus Portal::archive_status(const std::string& archive,
                                     const std::string& base_url,
                                     const services::EndpointStats& before) const {
  ArchiveStatus s;
  s.archive = archive;
  s.endpoint = base_url;
  services::EndpointStats after;
  if (const services::EndpointStats* p = client_.stats_for(host_of(base_url))) {
    after = *p;
  }
  s.attempted = after.attempts - before.attempts;
  s.succeeded = after.successes - before.successes;
  s.retries = after.retries - before.retries;
  s.breaker_trips = after.breaker_trips - before.breaker_trips;
  s.failovers = after.failovers - before.failovers;
  return s;
}

void Portal::record_archive(PortalTrace* trace, ArchiveStatus status) {
  if (!trace) return;
  trace->retries += status.retries;
  trace->breaker_trips += status.breaker_trips;
  trace->failovers += status.failovers;
  trace->archives.push_back(std::move(status));
}

void Portal::add_cluster(ClusterEntry entry) { clusters_.push_back(std::move(entry)); }

const ClusterEntry* Portal::find_cluster(const std::string& name) const {
  for (const ClusterEntry& c : clusters_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

Expected<Portal::ImageLinks> Portal::find_large_scale_images(
    const std::string& cluster_name, PortalTrace* trace) {
  const ClusterEntry* cluster = find_cluster(cluster_name);
  if (!cluster) return Error(ErrorCode::kNotFound, "unknown cluster " + cluster_name);

  ImageLinks links;
  obs::Span stage = obs::start_span(config_.tracer, "portal.image_search", "portal");
  const double before = fabric_.now_ms();
  // Optical: DSS. X-ray: ROSAT + Chandra. An archive being down is not
  // fatal — the analysis can proceed without a large-scale image.
  struct Archive {
    const char* name;
    const std::string& base;
    std::vector<std::string>& dest;
    const char* label;
  };
  const Archive archives[] = {
      {"DSS", federation_.dss_sia, links.optical, "DSS"},
      {"ROSAT", federation_.rosat_sia, links.xray, "X-ray"},
      {"Chandra", federation_.chandra_sia, links.xray, "X-ray"}};
  for (const Archive& a : archives) {
    obs::Span q =
        obs::start_span(config_.tracer, std::string("query.") + a.name, "archive");
    const auto snap = stats_snapshot(client_, a.base);
    auto rows = services::sia_query(client_, a.base, cluster->position,
                                    cluster->search_radius_deg * 2.0);
    ArchiveStatus status = archive_status(a.name, a.base, snap);
    if (rows.ok()) {
      status.rows = rows->size();
      for (const auto& r : rows.value()) a.dest.push_back(r.access_url);
    } else {
      status.skipped_reason = rows.error().to_string();
      log_warn("portal", std::string(a.label) + " SIA failed: " + rows.error().to_string());
      q.note("skipped", status.skipped_reason);
    }
    q.count("attempts", static_cast<double>(status.attempted));
    q.count("retries", static_cast<double>(status.retries));
    q.count("rows", static_cast<double>(status.rows));
    record_archive(trace, std::move(status));
  }
  if (trace) trace->image_search_ms += fabric_.now_ms() - before;
  return links;
}

Expected<votable::Table> Portal::build_galaxy_catalog(const std::string& cluster_name,
                                                      PortalTrace* trace) {
  const ClusterEntry* cluster = find_cluster(cluster_name);
  if (!cluster) return Error(ErrorCode::kNotFound, "unknown cluster " + cluster_name);

  obs::Span stage = obs::start_span(config_.tracer, "portal.catalog_build", "portal");
  const double before = fabric_.now_ms();
  obs::Span ned_span = obs::start_span(config_.tracer, "query.NED", "archive");
  const auto ned_snap = stats_snapshot(client_, federation_.ned_cone);
  auto ned = services::cone_search(client_, federation_.ned_cone, cluster->position,
                                   cluster->search_radius_deg);
  ArchiveStatus ned_status = archive_status("NED", federation_.ned_cone, ned_snap);
  if (ned.ok()) ned_status.rows = ned->num_rows();
  ned_span.count("attempts", static_cast<double>(ned_status.attempted));
  ned_span.count("retries", static_cast<double>(ned_status.retries));
  ned_span.count("rows", static_cast<double>(ned_status.rows));
  ned_span.end();
  obs::Span cnoc_span = obs::start_span(config_.tracer, "query.CNOC", "archive");
  const auto cnoc_snap = stats_snapshot(client_, federation_.cnoc_cone);
  auto cnoc = services::cone_search(client_, federation_.cnoc_cone, cluster->position,
                                    cluster->search_radius_deg);
  ArchiveStatus cnoc_status = archive_status("CNOC", federation_.cnoc_cone, cnoc_snap);
  if (cnoc.ok()) cnoc_status.rows = cnoc->num_rows();
  cnoc_span.count("attempts", static_cast<double>(cnoc_status.attempted));
  cnoc_span.count("retries", static_cast<double>(cnoc_status.retries));
  cnoc_span.count("rows", static_cast<double>(cnoc_status.rows));
  cnoc_span.end();

  // Graceful degradation: either survey alone still yields a usable catalog
  // (both carry id/ra/dec); only losing both archives is fatal.
  votable::Table catalog;
  if (ned.ok() && cnoc.ok() && cnoc->num_rows() > 0) {
    // The generic join the paper calls for: NED brings position/redshift/
    // magnitude, CNOC adds velocity and color. Left join keeps galaxies the
    // second survey missed.
    auto joined = votable::join(ned.value(), cnoc.value(), "id", "id",
                                votable::JoinKind::kLeft);
    if (!joined.ok()) return joined.error();
    catalog = std::move(joined.value());
  } else if (ned.ok()) {
    if (!cnoc.ok()) {
      cnoc_status.skipped_reason = cnoc.error().to_string();
      log_warn("portal", "CNOC cone search failed (continuing with NED only): " +
                             cnoc.error().to_string());
    }
    catalog = std::move(ned.value());
  } else if (cnoc.ok() && cnoc->num_rows() > 0) {
    ned_status.skipped_reason = ned.error().to_string();
    log_warn("portal", "NED cone search failed (continuing with CNOC only): " +
                           ned.error().to_string());
    catalog = std::move(cnoc.value());
  } else {
    // Dual-archive outage: record WHY each archive delivered nothing, so
    // the failure is diagnosable from the outcome's ArchiveStatus entries.
    ned_status.skipped_reason = ned.error().to_string();
    cnoc_status.skipped_reason =
        cnoc.ok() ? "empty result" : cnoc.error().to_string();
    record_archive(trace, std::move(ned_status));
    record_archive(trace, std::move(cnoc_status));
    if (trace) trace->catalog_build_ms += fabric_.now_ms() - before;
    return Error(ErrorCode::kServiceUnavailable,
                 "all catalog archives unavailable for " + cluster_name + ": NED: " +
                     ned.error().to_string() +
                     (cnoc.ok() ? "; CNOC: empty" : "; CNOC: " +
                                                        cnoc.error().to_string()));
  }
  record_archive(trace, std::move(ned_status));
  record_archive(trace, std::move(cnoc_status));
  catalog.name = cluster_name + "_catalog";
  if (trace) trace->catalog_build_ms += fabric_.now_ms() - before;
  return catalog;
}

Expected<votable::Table> Portal::attach_cutout_refs(votable::Table catalog,
                                                    const std::string& cluster_name,
                                                    PortalTrace* trace) {
  const ClusterEntry* cluster = find_cluster(cluster_name);
  if (!cluster) return Error(ErrorCode::kNotFound, "unknown cluster " + cluster_name);
  const auto ra_col = catalog.column_index("ra");
  const auto dec_col = catalog.column_index("dec");
  if (!ra_col || !dec_col) {
    return Error(ErrorCode::kInvalidArgument, "catalog lacks ra/dec");
  }

  obs::Span stage = obs::start_span(config_.tracer, "portal.cutout_refs", "portal");
  const double before = fabric_.now_ms();
  const auto cutout_snap = stats_snapshot(client_, federation_.cutout_sia);
  std::size_t queries = 0;
  std::size_t refs_attached = 0;
  catalog.add_column({"cutout_url", votable::DataType::kString, "", "meta.ref.url",
                      "galaxy cutout access reference"});

  // Matches one batch of records against catalog rows by position: for each
  // row, the nearest record strictly inside the 2 arcsec tolerance wins
  // (first record on exact ties, like the original linear scan). An index
  // over record centers makes this O((m + n) log m) instead of O(n·m).
  const auto match_records =
      [&](const std::vector<services::SiaRecord>& records,
          const std::vector<std::size_t>& row_ids) {
        std::vector<sky::Equatorial> centers;
        centers.reserve(records.size());
        for (const auto& r : records) centers.push_back(r.center);
        const sky::SpatialIndex record_index(std::move(centers), 720);
        constexpr double kTolDeg = 2.0 / 3600.0;  // 2 arcsec match tolerance
        for (const std::size_t i : row_ids) {
          const auto ra = catalog.row(i)[*ra_col].as_number();
          const auto dec = catalog.row(i)[*dec_col].as_number();
          if (!ra || !dec) continue;
          const sky::Equatorial pos{*ra, *dec};
          const services::SiaRecord* best = nullptr;
          double best_sep = kTolDeg;
          for (const std::size_t id : record_index.query_cone(pos, kTolDeg)) {
            const double sep = sky::angular_separation_deg(records[id].center, pos);
            if (sep < best_sep) {
              best_sep = sep;
              best = &records[id];
            }
          }
          if (best) {
            catalog.set_cell(i, "cutout_url",
                             votable::Value::of_string(best->access_url));
            ++refs_attached;
          }
        }
      };

  if (config_.cutout_query == CutoutQueryMode::kWideCone) {
    // The batched mode the paper wanted: one wide cone returns every
    // member's cutout reference; match records to rows by position.
    auto records = services::sia_query(client_, federation_.cutout_sia,
                                       cluster->position,
                                       cluster->search_radius_deg * 2.0);
    if (!records.ok()) {
      ArchiveStatus status =
          archive_status("MAST cutout", federation_.cutout_sia, cutout_snap);
      status.skipped_reason = records.error().to_string();
      record_archive(trace, std::move(status));
      if (trace) trace->cutout_query_ms += fabric_.now_ms() - before;
      return records.error();
    }
    ++queries;
    std::vector<std::size_t> all_rows(catalog.num_rows());
    for (std::size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
    match_records(records.value(), all_rows);
  } else if (config_.cutout_query == CutoutQueryMode::kCoalesced) {
    // Spatial-patch batching: rows bucketed on a fixed angular grid; one
    // SIA range query per occupied patch covers every member, so the
    // round-trip count follows the sky area, not the galaxy count, while
    // each response stays patch-sized. A failed patch query loses only
    // that patch's cutout references.
    const double patch = std::max(config_.cutout_patch_deg, 1e-6);
    // Each patch keeps (row index, position): positions are captured once
    // at bucketing time, so no later step re-dereferences as_number() on a
    // row it has not itself checked.
    struct Member {
      std::size_t row;
      sky::Equatorial pos;
    };
    std::map<std::pair<long, long>, std::vector<Member>> patches;
    for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
      const auto ra = catalog.row(i)[*ra_col].as_number();
      const auto dec = catalog.row(i)[*dec_col].as_number();
      if (!ra || !dec) continue;
      patches[{static_cast<long>(std::floor(*ra / patch)),
               static_cast<long>(std::floor(*dec / patch))}]
          .push_back(Member{i, {*ra, *dec}});
    }
    for (const auto& [cell, members] : patches) {
      // Patch center = member centroid; the query radius covers the
      // farthest member plus a cutout-size margin.
      double sum_ra = 0.0, sum_dec = 0.0;
      for (const Member& m : members) {
        sum_ra += m.pos.ra_deg;
        sum_dec += m.pos.dec_deg;
      }
      const sky::Equatorial center{sum_ra / members.size(),
                                   sum_dec / members.size()};
      double max_sep = 0.0;
      for (const Member& m : members) {
        max_sep = std::max(max_sep, sky::angular_separation_deg(center, m.pos));
      }
      auto records = services::sia_query(client_, federation_.cutout_sia, center,
                                         2.0 * max_sep + config_.cutout_size_deg);
      ++queries;
      if (!records.ok() || records->empty()) continue;
      std::vector<std::size_t> row_ids;
      row_ids.reserve(members.size());
      for (const Member& m : members) row_ids.push_back(m.row);
      match_records(records.value(), row_ids);
    }
  } else {
    // The paper's actual behaviour: "an image query ... for each galaxy
    // must be done separately" — the application's bottleneck. A failed
    // query loses that one galaxy's cutout reference, not the stage.
    for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
      const auto ra = catalog.row(i)[*ra_col].as_number();
      const auto dec = catalog.row(i)[*dec_col].as_number();
      if (!ra || !dec) continue;
      auto records = services::sia_query(client_, federation_.cutout_sia,
                                         {*ra, *dec}, config_.cutout_size_deg);
      ++queries;
      if (!records.ok() || records->empty()) continue;
      // The cone may contain close neighbors too; take the record nearest
      // the requested position, not merely the first.
      const sky::Equatorial want{*ra, *dec};
      const services::SiaRecord* best = &records->front();
      double best_sep = sky::angular_separation_deg(best->center, want);
      for (const auto& r : records.value()) {
        const double sep = sky::angular_separation_deg(r.center, want);
        if (sep < best_sep) {
          best_sep = sep;
          best = &r;
        }
      }
      catalog.set_cell(i, "cutout_url",
                       votable::Value::of_string(best->access_url));
      ++refs_attached;
    }
  }
  {
    ArchiveStatus status =
        archive_status("MAST cutout", federation_.cutout_sia, cutout_snap);
    status.rows = refs_attached;
    if (refs_attached == 0 && catalog.num_rows() > 0) {
      status.skipped_reason = "no cutout reference resolved";
    }
    record_archive(trace, std::move(status));
  }
  stage.count("queries", static_cast<double>(queries));
  stage.count("refs", static_cast<double>(refs_attached));
  if (trace) {
    trace->cutout_query_ms += fabric_.now_ms() - before;
    trace->cutout_queries += queries;
  }
  return catalog;
}

const char* to_string(Portal::AnalysisRun::Stage stage) {
  using Stage = Portal::AnalysisRun::Stage;
  switch (stage) {
    case Stage::kImages: return "images";
    case Stage::kCatalog: return "catalog";
    case Stage::kCutouts: return "cutouts";
    case Stage::kCompute: return "compute";
    case Stage::kMerge: return "merge";
    case Stage::kDone: return "done";
    case Stage::kFailed: return "failed";
    case Stage::kCancelled: return "cancelled";
    case Stage::kExpired: return "expired";
  }
  return "?";
}

void PortalTrace::tally(const votable::Table& catalog) {
  valid = 0;
  invalid = 0;
  const auto valid_col = catalog.column_index("valid");
  for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
    const auto v = valid_col ? catalog.row(i)[*valid_col].as_bool() : std::nullopt;
    if (v && *v) {
      ++valid;
    } else {
      ++invalid;
    }
  }
}

Expected<votable::Table> Portal::fetch_votable(const std::string& url) {
  auto response = client_.get(url);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error(ErrorCode::kServiceUnavailable,
                 format("fetch of %s returned %d", url.c_str(), response->status));
  }
  return votable::from_votable_xml(response->body_text());
}

void Portal::advance(AnalysisRun& run, const services::RequestContext& ctx) {
  using Stage = AnalysisRun::Stage;
  switch (run.stage) {
    case Stage::kImages: {
      auto images = find_large_scale_images(run.cluster, &run.trace);
      if (!images.ok()) return end_run(run, Stage::kFailed, images.error());
      run.images = std::move(images.value());
      run.stage = Stage::kCatalog;
      return;
    }
    case Stage::kCatalog: {
      auto catalog = build_galaxy_catalog(run.cluster, &run.trace);
      if (!catalog.ok()) return end_run(run, Stage::kFailed, catalog.error());
      run.with_refs = std::move(catalog.value());
      run.stage = Stage::kCutouts;
      return;
    }
    case Stage::kCutouts: {
      auto with_refs =
          attach_cutout_refs(std::move(run.with_refs), run.cluster, &run.trace);
      if (!with_refs.ok()) return end_run(run, Stage::kFailed, with_refs.error());
      run.with_refs = std::move(with_refs.value());
      run.trace.galaxies = run.with_refs.num_rows();
      run.stage = Stage::kCompute;
      return;
    }
    case Stage::kCompute:
      return compute_stage(run, ctx);
    case Stage::kMerge: {
      // Final merge: morphology columns joined back onto the full catalog.
      obs::Span merge_span = obs::start_span(config_.tracer, "portal.merge", "portal");
      const auto t0 = std::chrono::steady_clock::now();
      auto merged = votable::join(run.with_refs, run.morphology, "id", "id",
                                  votable::JoinKind::kLeft);
      if (!merged.ok()) return end_run(run, Stage::kFailed, merged.error());
      run.trace.merge_ms = wall_ms_since(t0);
      run.trace.tally(merged.value());
      run.catalog = std::move(merged.value());
      run.catalog.name = run.cluster + "_analysis";
      run.stage = Stage::kDone;
      return;
    }
    default:
      return;
  }
}

void Portal::compute_stage(AnalysisRun& run, const services::RequestContext& ctx) {
  using Stage = AnalysisRun::Stage;
  // Drop rows with no cutout reference (nothing to compute on). The column
  // is checked, not assumed: a degraded cutout stage surfaces as a status,
  // never as an unchecked dereference.
  const auto url_col = run.with_refs.column_index("cutout_url");
  if (!url_col) {
    return end_run(run, Stage::kFailed,
                   Error(ErrorCode::kInternal,
                         "cutout stage produced no cutout_url column"));
  }
  const votable::Table input =
      votable::select(run.with_refs, [&](const votable::Row& row) {
        const auto url = row[*url_col].as_string();
        return url && !url->empty();
      });
  if (input.num_rows() == 0) {
    return end_run(run, Stage::kFailed,
                   Error(ErrorCode::kInvalidArgument,
                         "no galaxy in " + run.cluster + " has a cutout reference"));
  }

  obs::Span span = obs::start_span(config_.tracer, "portal.compute", "portal");
  const double before = fabric_.now_ms();
  auto status_url = compute_.gal_morph_compute(input, run.out_name, ctx);
  if (!status_url.ok()) return end_run(run, Stage::kFailed, status_url.error());
  // The unique request id rides in the status URL ("...?id=req-N"); keep it
  // so the service trace can be found again after other requests interleave.
  if (const auto pos = status_url->find("id="); pos != std::string::npos) {
    run.trace.compute_request_id = status_url->substr(pos + 3);
  }
  // The Fig. 6 status round trip. gal_morph_compute runs the request to a
  // terminal state before it answers, so the first poll is final.
  auto poll = compute_.poll(status_url.value());
  if (!poll.ok()) return end_run(run, Stage::kFailed, poll.error());
  ++run.trace.polls;
  const std::string detail = join(poll->messages, "; ");
  if (poll->state == "cancelled") {
    return end_run(run, Stage::kCancelled,
                   Error(ErrorCode::kCancelled, "compute cancelled: " + detail));
  }
  if (poll->state == "expired") {
    return end_run(run, Stage::kExpired,
                   Error(ErrorCode::kDeadlineExceeded,
                         "compute deadline exceeded: " + detail));
  }
  if (poll->state == "failed") {
    return end_run(run, Stage::kFailed,
                   Error(ErrorCode::kComputeFailed, "compute service failed: " + detail));
  }
  if (poll->state != "completed") {
    return end_run(run, Stage::kFailed,
                   Error(ErrorCode::kInternal,
                         "compute status poll answered non-terminal state '" +
                             poll->state + "'"));
  }
  auto morphology = fetch_votable(poll->result_url);
  if (!morphology.ok()) return end_run(run, Stage::kFailed, morphology.error());
  run.morphology = std::move(morphology.value());
  // Simulated compute latency: the fabric charges from submit to fetch,
  // plus the service's own accounting (staging + makespan). The staging
  // fetches inside gal_morph_compute are fabric charges too, so staging is
  // billed twice; fixing that moves every sim latency and is left to the
  // latency-attribution work.
  run.trace.compute_wait_ms += fabric_.now_ms() - before;
  if (const ServiceTrace* st = compute_.trace(run.trace.compute_request_id)) {
    run.trace.compute_wait_ms += st->total_sim_seconds * 1000.0;
  }
  span.count("polls", static_cast<double>(run.trace.polls));
  span.count("galaxies", static_cast<double>(input.num_rows()));
  run.stage = Stage::kMerge;
}

Portal::AnalysisOutcome Portal::run_analysis(const std::string& cluster_name) {
  obs::Span root = obs::start_span(config_.tracer, "portal.run_analysis", "portal");
  root.note("cluster", cluster_name);
  AnalysisRun run;
  run.cluster = run.out_name = cluster_name;
  while (!run.finished()) advance(run);
  if (!run.ok()) {
    root.note("error", run.error().to_string());
  } else {
    root.count("galaxies", static_cast<double>(run.trace.galaxies));
    root.count("valid", static_cast<double>(run.trace.valid));
    root.count("invalid", static_cast<double>(run.trace.invalid));
  }
  return run;
}

}  // namespace nvo::portal
