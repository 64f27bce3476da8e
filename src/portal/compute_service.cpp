#include "portal/compute_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "grid/rescue.hpp"
#include "grid/threadpool.hpp"
#include "services/integrity.hpp"
#include "services/obs_bridge.hpp"
#include "pegasus/request_manager.hpp"
#include "portal/streaming_merge.hpp"
#include "portal/transforms.hpp"
#include "services/sia.hpp"
#include "votable/votable_io.hpp"

namespace nvo::portal {

namespace {
/// Content digest of a catalog's bytes, recorded when it is materialized.
std::uint64_t catalog_digest(const std::string& xml) {
  return content_digest(reinterpret_cast<const std::uint8_t*>(xml.data()), xml.size());
}

double wall_ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

// --- checkpoint record codecs ---------------------------------------------
// The journal stores per-galaxy morphology rows and staged-image
// registrations as space-separated fields. Doubles are serialized as their
// 64-bit pattern in hex: a resumed row must be bit-identical to the one the
// kernel produced, and a decimal round-trip would lose ulps and break the
// byte-identical-catalog guarantee. The journal is untrusted on load: a
// record with any malformed field is not resumed, so its galaxy is
// recomputed and its image re-staged.

std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Request::node_row's entry for a DAG node that is not a galaxy's job.
constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

/// Concurrent stage-in channels on the sim clock: fetch latencies overlap
/// each other up to this bound (and all of them overlap kernel time),
/// modeling a client that keeps this many transfers in flight.
constexpr std::size_t kStageInWindow = 8;
/// Bound on the bytes of staged-but-uncomputed cutouts pinned for pending
/// kernels (see submit_kernel). Its own constant, not the replica cache's
/// byte_budget: shrinking the cache must not shrink how far staging runs
/// ahead of the pool. A whole campaign_cold campaign stages ~30 MB.
constexpr std::size_t kStagingByteBound = 256u << 20;
/// Hedge delay: this quantile of the primary-duration history, once the
/// history holds kHedgeMinSamples durations.
constexpr double kHedgeQuantile = 0.75;
constexpr std::size_t kHedgeMinSamples = 6;
/// Cap on the service-level rolling window of primary stage-in durations
/// (hedge_history_): old weather ages out, the quantile sort stays cheap.
constexpr std::size_t kHedgeHistoryLimit = 512;

/// Linear-interpolated quantile of a sample set (q in [0,1]).
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Inverse of escape_field; nullopt unless every '%' starts a two-hex-digit
/// escape.
std::optional<std::string> unescape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    const std::optional<std::uint64_t> byte =
        i + 2 < s.size() ? parse_hex_u64(s.substr(i + 1, 2)) : std::nullopt;
    if (!byte) return std::nullopt;
    out += static_cast<char>(*byte);
    i += 2;
  }
  return out;
}

/// Pointers to the 15 doubles of a result, in serialization order.
/// Templated so the same list serves encode (const) and decode (mutable).
template <typename R>
auto result_doubles(R& r) {
  return std::array{&r.redshift,
                    &r.kpc_per_arcsec,
                    &r.petrosian_r_kpc,
                    &r.params.surface_brightness,
                    &r.params.concentration,
                    &r.params.asymmetry,
                    &r.params.total_flux,
                    &r.params.petrosian_r,
                    &r.params.r20,
                    &r.params.r80,
                    &r.params.centroid_x,
                    &r.params.centroid_y,
                    &r.params.background_level,
                    &r.params.background_sigma,
                    &r.params.snr};
}

std::string encode_result(const core::GalMorphResult& r) {
  std::string out = escape_field(r.galaxy_id);
  out += r.params.valid ? " 1 " : " 0 ";
  out += r.params.failure_reason.empty() ? "-"
                                         : escape_field(r.params.failure_reason);
  for (const double* d : result_doubles(r)) {
    out += ' ';
    append_hex_double(out, *d);
  }
  return out;
}

/// Decodes an encode_result payload; false, with `out` untouched, when any
/// field is malformed.
bool decode_result(const std::string& payload, core::GalMorphResult& out) {
  const std::vector<std::string> f = split(payload, ' ');
  if (f.size() != 18 || (f[1] != "0" && f[1] != "1")) return false;
  core::GalMorphResult r;
  std::optional<std::string> id = unescape_field(f[0]);
  std::optional<std::string> reason =
      f[2] == "-" ? std::string() : unescape_field(f[2]);
  if (!id || !reason) return false;
  r.galaxy_id = std::move(*id);
  r.params.valid = f[1] == "1";
  r.params.failure_reason = std::move(*reason);
  const auto slots = result_doubles(r);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::optional<double> v = parse_hex_double(f[3 + i]);
    if (!v) return false;
    *slots[i] = *v;
  }
  out = std::move(r);
  return true;
}

/// The service's simulated job durations: `cost` as configured, with a
/// default compute model when none is set (concat scales with its fan-in).
grid::JobCostModel job_cost_model(grid::JobCostModel cost) {
  if (!cost.compute_seconds) {
    const double ref = cost.compute_reference_seconds;
    cost.compute_seconds = [ref](const vds::DagNode& n) {
      if (starts_with(n.transformation, "concatMorph")) {
        return 0.5 + 0.002 * static_cast<double>(n.inputs.size());
      }
      return ref;
    };
  }
  return cost;
}

/// Run-level counters summed across rescue rounds: merge_node_outcomes
/// rebuilds a report from per-node outcomes only.
struct RunTotals {
  std::size_t retries = 0;
  std::size_t stolen = 0;
  std::size_t wan = 0;
  std::size_t expired = 0;
  std::vector<std::string> sites_lost;
  std::map<std::string, double> busy;
  bool merged = false;  ///< the report was rebuilt by merge_node_outcomes

  void absorb(const grid::RunReport& rep) {
    retries += rep.retries;
    stolen += rep.stolen_jobs;
    wan += rep.wan_bytes;
    expired += rep.jobs_expired;
    sites_lost.insert(sites_lost.end(), rep.sites_lost.begin(), rep.sites_lost.end());
    for (const auto& [s, t] : rep.site_busy_seconds) busy[s] += t;
  }
  void apply_to(grid::RunReport& rep) {
    if (!merged) return;
    rep.retries = retries;
    rep.stolen_jobs = stolen;
    rep.wan_bytes = wan;
    rep.jobs_expired = expired;
    rep.sites_lost = std::move(sites_lost);
    rep.site_busy_seconds = std::move(busy);
  }
};

/// Waits for the kernel pool on scope exit, error paths included (the
/// waiting thread runs the still-queued kernels itself).
struct PoolDrain {
  grid::ThreadPool& pool;
  ~PoolDrain() { pool.wait_idle(); }
};
}  // namespace

MorphologyService::MorphologyService(services::HttpFabric& fabric, grid::Grid& grid,
                                     pegasus::ReplicaLocationService& rls,
                                     pegasus::TransformationCatalog& tc,
                                     ComputeServiceConfig config)
    : fabric_(fabric),
      grid_(grid),
      rls_(rls),
      tc_(tc),
      config_(std::move(config)),
      client_(fabric, config_.retry, config_.breaker, "compute"),
      ids_("req"),
      pool_(config_.compute_threads),
      cache_(config_.replica_cache),
      state_(std::make_shared<State>()) {
  for (const auto& [host, mirror] : config_.mirrors) client_.add_mirror(host, mirror);
  // Keep the RLS and grid truthful under eviction: a dropped replica must
  // not be advertised, or Pegasus would prune a stage-in it still needs.
  cache_.set_eviction_callback([this](const std::string& lfn) {
    // An LFN staged by the active request stays advertised until that
    // request is done with it (see EvictionDeferral).
    if (defer_evictions_ && request_lfns_.count(lfn) != 0) {
      deferred_evictions_.push_back(lfn);
      return;
    }
    (void)rls_.remove(lfn, config_.cache_site);
    grid_.remove_file(config_.cache_site, lfn);
  });
  // galMorph is installed at every pool (the paper shipped its executable to
  // all three sites).
  for (const std::string& site : grid_.site_names()) {
    (void)tc_.add({"galMorph", site, "/grid/bin/galMorph", {{"version", "1.0"}}});
  }

  // Status endpoint: tiny key=value document.
  auto state = state_;
  fabric_.route(config_.host, "/status",
                [state](const services::Url& url)
                    -> Expected<services::HttpResponse> {
                  const auto id = url.param("id");
                  if (!id) return Error(ErrorCode::kInvalidArgument, "missing id");
                  const auto it = state->requests.find(*id);
                  if (it == state->requests.end()) {
                    return Error(ErrorCode::kNotFound, "unknown request " + *id);
                  }
                  const RequestRecord& r = it->second;
                  std::string body = "state=" + r.state + "\n";
                  if (r.state == "completed") {
                    body += "result=" + r.result_lfn + "\n";
                  }
                  for (const std::string& m : r.messages) body += "message=" + m + "\n";
                  return services::HttpResponse::text(body);
                },
                services::EndpointModel{10.0, 50.0, 0.0, true});

  // Result endpoint: serves the computed VOTable.
  fabric_.route(config_.host, "/results",
                [state](const services::Url& url)
                    -> Expected<services::HttpResponse> {
                  const auto name = url.param("name");
                  if (!name) return Error(ErrorCode::kInvalidArgument, "missing name");
                  const auto it = state->results.find(*name);
                  if (it == state->results.end()) {
                    return Error(ErrorCode::kNotFound, "no result " + *name);
                  }
                  auto response = services::HttpResponse::text(
                      it->second.xml, "text/xml;content=x-votable");
                  response.origin_digest = it->second.digest;
                  return response;
                },
                services::EndpointModel{10.0, 50.0, 0.0, true});
}

Expected<std::string> MorphologyService::gal_morph_compute(
    const votable::Table& input, const std::string& out_name,
    const services::RequestContext& ctx) {
  RequestRecord record;
  record.id = ids_.next();
  record.trace.request_id = record.id;
  record.trace.cluster_name = out_name;
  const std::string status_url =
      "http://" + config_.host + "/status?id=" + record.id;
  record.messages.push_back("request accepted: " + out_name);

  const Status s = process(record, input, out_name, ctx);
  if (!s.ok()) {
    // Cancelled/expired are first-class terminal states — the portal maps
    // them back onto its own request lifecycle; everything else is "failed".
    record.state = s.error().code == ErrorCode::kCancelled ? "cancelled"
                   : s.error().code == ErrorCode::kDeadlineExceeded
                       ? "expired"
                       : "failed";
    record.messages.push_back("error: " + s.error().to_string());
  }
  const std::string request_id = record.id;
  state_->requests[request_id] = std::move(record);
  state_->order.push_back(request_id);
  return status_url;
}

std::map<std::string, double> stage_in_ready_times(const FetchTimeline& fetches,
                                                   const pegasus::PlanResult& plan,
                                                   const std::string& cache_site) {
  std::priority_queue<double, std::vector<double>, std::greater<>> channels;
  for (std::size_t c = 0; c < kStageInWindow; ++c) channels.push(0.0);
  std::unordered_map<std::string_view, double> arrival_ms;
  arrival_ms.reserve(fetches.size());
  for (const auto& [lfn, dur_ms] : fetches) {
    const double done = channels.top() + dur_ms;
    channels.pop();
    channels.push(done);
    arrival_ms[lfn] = done;
  }
  std::map<std::string, double> ready;
  if (arrival_ms.empty()) return ready;
  for (const auto& [node_id, inputs] : plan.data_inputs) {
    double node_ready_ms = 0.0;
    for (const std::string& lfn : inputs) {
      if (const auto it = arrival_ms.find(lfn); it != arrival_ms.end()) {
        node_ready_ms = std::max(node_ready_ms, it->second);
      }
    }
    // data_inputs iterates in id order, so each entry lands at the end.
    if (node_ready_ms > 0.0) {
      ready.emplace_hint(ready.end(), node_id, node_ready_ms / 1000.0);
    }
  }
  // Multi-pool plans insert stage-in transfers sourced at the cache site
  // for cutouts that are themselves still arriving from the archive: the
  // inter-site stream cannot start before its file lands in the cache.
  for (const vds::DagNode& tn : plan.concrete.nodes()) {
    if (tn.type != vds::JobType::kTransfer || tn.source_site != cache_site) continue;
    if (const auto it = arrival_ms.find(tn.file); it != arrival_ms.end()) {
      double& slot = ready[tn.id];
      slot = std::max(slot, it->second / 1000.0);
    }
  }
  return ready;
}

struct MorphologyService::Request {
  RequestRecord& record;
  const votable::Table& input;
  const std::string& out_name;
  const std::string out_lfn;
  const std::size_t id_col;
  const std::size_t url_col;
  const services::RequestContext& ctx;
  grid::CheckpointJournal* const journal;
  ServiceTrace& trace = record.trace;
  /// Checkpoint-journal records for this cluster are keyed "<out_lfn>/...".
  const std::string ck = out_lfn + "/";
  const std::optional<std::size_t> z_col = input.column_index("redshift");
  /// Galaxy ids in input order, appended while staging into an exact
  /// reservation, so kernel tasks can read the entries already written.
  std::vector<std::string> galaxy_ids{};
  std::vector<core::GalMorphResult> results =
      std::vector<core::GalMorphResult>(input.num_rows());
  /// Rows stream into the output VOTable as galaxies finish (kernel done +
  /// node final), while other galaxies are still staging or computing.
  StreamingCatalogWriter writer{out_lfn, results};
  FetchTimeline fetch_timeline{};
  /// Concrete-DAG node index -> its galaxy's row (kNoRow for other nodes).
  std::vector<std::size_t> node_row{};
  /// Serializes the in-flight byte bound around the live counts in
  /// staging_inflight_ and staging_inflight_bytes_ (members, so the gauges
  /// can read them).
  std::mutex inflight_mu{};
  std::condition_variable inflight_cv{};
  /// Kernel spans parent under the staging span by explicit id: the tasks
  /// outlive the staging loop.
  std::uint64_t staging_span = 0;
  std::chrono::steady_clock::time_point stage_t0{};
};

// process() declares this before its pool drain, so evictions flush after
// the pool is idle: deferred LFNs deregister (only if still non-resident)
// once nothing in the request can reference the replicas any more.
struct MorphologyService::EvictionDeferral {
  MorphologyService& svc;
  explicit EvictionDeferral(MorphologyService& s) : svc(s) {
    svc.defer_evictions_ = true;
    svc.request_lfns_.clear();
    svc.deferred_evictions_.clear();
  }
  EvictionDeferral(const EvictionDeferral&) = delete;
  ~EvictionDeferral() {
    svc.defer_evictions_ = false;
    for (const std::string& lfn : svc.deferred_evictions_) {
      if (!svc.cache_.contains(lfn)) {
        (void)svc.rls_.remove(lfn, svc.config_.cache_site);
        svc.grid_.remove_file(svc.config_.cache_site, lfn);
      }
    }
    svc.deferred_evictions_.clear();
    svc.request_lfns_.clear();
  }
};

Status MorphologyService::process(RequestRecord& record, const votable::Table& input,
                                  const std::string& out_name,
                                  const services::RequestContext& ctx) {
  ServiceTrace& trace = record.trace;
  obs::Span req = obs::start_span(config_.tracer, "compute.request", "compute");
  req.note("request", record.id);
  if (ctx.cancelled()) {
    return Error(ErrorCode::kCancelled,
                 "request cancelled before staging: " + ctx.cancel.reason());
  }
  if (ctx.expired(fabric_.now_ms())) {
    return Error(ErrorCode::kDeadlineExceeded,
                 "deadline budget exhausted before staging");
  }
  // Staging fetches and their retries see the caller's budget and token;
  // restored on return, so polls from other requests are unaffected.
  services::ResilientClient::ScopedContext scoped_ctx(client_, ctx);
  const std::string out_lfn =
      ends_with(out_name, ".vot") ? out_name : output_votable_lfn(out_name);
  record.result_lfn = "http://" + config_.host + "/results?name=" + out_lfn;
  if (serve_materialized(record, out_lfn, req)) return Status::Ok();

  const auto id_col = input.column_index("id");
  const auto url_col = input.column_index("cutout_url");
  if (!id_col || !url_col) {
    return Error(ErrorCode::kInvalidArgument,
                 "input VOTable needs id and cutout_url columns");
  }
  trace.galaxies = input.num_rows();
  if (trace.galaxies == 0) {
    return Error(ErrorCode::kInvalidArgument, "input VOTable has no rows");
  }

  // Declaration order is the teardown contract. Kernel tasks hold references
  // into `rq`, so `drain` (declared last) waits for the pool first on every
  // exit path; `deferral` then flushes evictions; `rq` goes last.
  Request rq{record, input, out_name, out_lfn, *id_col, *url_col, ctx, config_.journal};
  replay_journal_images(rq);
  EvictionDeferral deferral(*this);
  PoolDrain drain{pool_};
  if (Status s = stage_and_compute(rq); !s.ok()) return s;
  const auto staged = std::chrono::steady_clock::now();
  auto abstract = compose_workflow(rq);
  if (!abstract.ok()) return abstract.error();
  if (Status s = plan_workflow(rq, std::move(abstract.value())); !s.ok()) return s;
  if (Status s = execute_workflow(rq); !s.ok()) return s;
  const auto controlled = std::chrono::steady_clock::now();
  // (4e) Barrier for the kernels, which ran concurrently with planning and
  // the simulated execution; this thread runs whatever is still queued.
  // kernel_wall_ms is the overlapped window, split into the three phases.
  pool_.wait_idle();
  const auto drained = std::chrono::steady_clock::now();
  const auto ms = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  trace.stage_wall_ms = ms(staged - rq.stage_t0);
  trace.control_wall_ms = ms(controlled - staged);
  trace.drain_wall_ms = ms(drained - controlled);
  trace.kernel_wall_ms = ms(drained - rq.stage_t0);
  materialize_catalog(rq);
  req.count("valid", static_cast<double>(trace.valid_results));
  req.count("invalid", static_cast<double>(trace.invalid_results));
  record.state = "completed";
  record.messages.push_back(
      format("job completed: %zu valid, %zu invalid, makespan %.1f sim-s",
             trace.valid_results, trace.invalid_results,
             trace.execution.makespan_seconds));
  return Status::Ok();
}

bool MorphologyService::serve_materialized(RequestRecord& record,
                                           const std::string& out_lfn,
                                           obs::Span& req) {
  ServiceTrace& trace = record.trace;
  const std::string* journaled =
      config_.journal ? config_.journal->find("cluster", out_lfn) : nullptr;
  if (rls_.exists(out_lfn) && state_->results.count(out_lfn)) {
    // (2) RLS lookup for the output VOTable: the result cache.
    trace.cache_hit = true;
    record.messages.push_back("output " + out_lfn + " already materialized (RLS hit)");
    req.count("result_cache_hit", 1.0);
  } else if (journaled) {
    // (2b) Checkpoint-journal result cache: a cluster whose catalog was
    // persisted by an earlier (possibly killed) campaign completes without
    // re-staging, re-planning, or re-computing anything.
    state_->results[out_lfn] = {*journaled, catalog_digest(*journaled)};
    rls_.add(out_lfn, config_.cache_site, record.result_lfn);
    grid_.put_file(config_.cache_site, out_lfn, journaled->size());
    trace.journal_hit = true;
    record.messages.push_back("output " + out_lfn +
                              " recovered from checkpoint journal");
    req.count("journal_hit", 1.0);
  } else {
    return false;
  }
  trace.total_sim_seconds = 0.0;
  record.state = "completed";
  return true;
}

void MorphologyService::replay_journal_images(const Request& rq) {
  if (!rq.journal) return;
  // Re-register journaled staged images (replica location, size, content
  // digest) so the planner sees the same replica state the original run had
  // at plan time — identical inputs give an identical concrete DAG, which is
  // what lets journaled node ids line up.
  rq.journal->for_each("image", [&](const std::string& key, const std::string& payload) {
    if (!starts_with(key, rq.ck)) return;
    const std::vector<std::string> f = split(payload, ' ');
    if (f.size() != 3) return;
    const std::optional<std::string> url = unescape_field(f[0]);
    std::size_t size = 0;
    const auto [end, ec] = std::from_chars(f[1].data(), f[1].data() + f[1].size(), size);
    const std::optional<std::uint64_t> digest = parse_hex_u64(f[2]);
    if (!url || ec != std::errc() || end != f[1].data() + f[1].size() || !digest) {
      return;
    }
    const std::string lfn = key.substr(rq.ck.size());
    rls_.add(lfn, config_.cache_site, *url, *digest);
    grid_.put_file(config_.cache_site, lfn, size);
  });
}

Status MorphologyService::stage_and_compute(Request& rq) {
  // (3) Stage images through the replica cache, pipelined against the
  // morphology kernels: each fetch stays on this thread (the fabric is
  // thread-compatible, not thread-safe), but the moment a payload is
  // resident its kernel task is submitted to the pool, so simulated
  // transfer time overlaps real compute time instead of serializing with
  // it.
  ServiceTrace& trace = rq.trace;
  const std::size_t rows = rq.input.num_rows();
  rq.record.messages.push_back(format("staging %zu galaxy images", trace.galaxies));
  obs::Span staging = obs::start_span(config_.tracer, "compute.staging", "compute");
  rq.staging_span = staging.id();
  rq.galaxy_ids.reserve(rows);
  const services::EndpointStats before = client_.totals();
  rq.stage_t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < rows; ++i) {
    // Cooperative cancellation / deadline expiry, checked between galaxies:
    // rows journaled so far are preserved (a resubmission resumes instead of
    // recomputing), kernel tasks already queued drop via their cancel branch,
    // and process()'s drain/deferral guards unwind everything else.
    if (rq.ctx.cancelled()) {
      return Error(ErrorCode::kCancelled,
                   format("staging cancelled after %zu of %zu galaxies", i, rows));
    }
    if (rq.ctx.expired(fabric_.now_ms())) {
      return Error(ErrorCode::kDeadlineExceeded,
                   format("deadline exceeded while staging (%zu of %zu galaxies)",
                          i, rows));
    }
    const auto id = rq.input.row(i)[rq.id_col].as_string();
    const auto url = rq.input.row(i)[rq.url_col].as_string();
    if (!id || !url) {
      return Error(ErrorCode::kInvalidArgument, format("row %zu lacks id/url", i));
    }
    rq.galaxy_ids.push_back(*id);
    const std::string lfn = image_lfn(*id);
    // Resumed galaxy: the journal holds the kernel's row bit-for-bit, so
    // neither the image bytes nor the kernel are needed again; only the
    // node outcome is still pending. The replica registration was already
    // replayed, so planning still sees it.
    if (rq.journal) {
      if (const std::string* row = rq.journal->find("row", rq.ck + *id)) {
        if (decode_result(*row, rq.results[i])) {
          ++trace.rows_resumed;
          rq.writer.mark_kernel_done(i);
          continue;
        }
      }
    }
    services::ReplicaCache::Payload payload = cache_.get(lfn);
    if (payload) {
      ++trace.images_cached;
    } else {
      double effective_ms = 0.0;
      auto response = fetch_cutout(trace, *url, effective_ms);
      rq.fetch_timeline.emplace_back(lfn, effective_ms);
      if (!response.ok() || response->status != 200) {
        // An unreachable image is a per-galaxy failure, not a request
        // failure: cache an empty payload and register it like any other
        // replica so Pegasus's feasibility check still passes — the kernel
        // will flag the galaxy invalid (§4.3.1 item 4).
        const std::string why = response.ok()
                                    ? format("status %d", response->status)
                                    : response.error().to_string();
        log_warn("galmorph-svc", "image fetch failed for " + *id + ": " + why);
        payload = cache_.put(lfn, {});
      } else {
        // The transport layer already verified the body against its signed
        // digest (retrying/failing over on mismatch), so admission here
        // records a digest of known-clean bytes.
        payload = cache_.put(lfn, std::move(response->body));
      }
      ++trace.images_fetched;
      rls_.add(lfn, config_.cache_site, *url, cache_.digest_of(lfn));
      grid_.put_file(config_.cache_site, lfn, payload->size());
    }
    request_lfns_.insert(lfn);  // a hit can still be evicted mid-request
    if (rq.journal && !rq.journal->has("image", rq.ck + lfn)) {
      std::string record = escape_field(*url) + ' ' +
                           std::to_string(payload->size()) + ' ';
      append_hex_u64(record, cache_.digest_of(lfn));
      (void)rq.journal->append("image", rq.ck + lfn, std::move(record));
    }
    submit_kernel(rq, i, std::move(payload));
  }
  const services::EndpointStats after = client_.totals();
  trace.staging_retries = after.retries - before.retries;
  trace.staging_failovers = after.failovers - before.failovers;
  trace.staging_breaker_trips = after.breaker_trips - before.breaker_trips;
  trace.staging_integrity_failures =
      after.integrity_failures - before.integrity_failures;
  trace.staging_quarantine_skips = after.quarantine_skips - before.quarantine_skips;
  std::vector<double> durations;
  durations.reserve(rq.fetch_timeline.size());
  for (const auto& fetch : rq.fetch_timeline) durations.push_back(fetch.second);
  trace.stage_in_p99_ms = quantile_of(std::move(durations), 0.99);
  staging.count("images_fetched", static_cast<double>(trace.images_fetched));
  staging.count("images_cached", static_cast<double>(trace.images_cached));
  staging.count("retries", static_cast<double>(trace.staging_retries));
  if (trace.hedged_fetches > 0) {
    staging.count("hedged_fetches", static_cast<double>(trace.hedged_fetches));
    staging.count("hedge_wins", static_cast<double>(trace.hedge_wins));
  }
  // Integrity/resume counts appear only when the feature fired, so the
  // zero-fault golden trace stays unchanged.
  if (trace.staging_integrity_failures > 0) {
    staging.count("integrity_failures",
                  static_cast<double>(trace.staging_integrity_failures));
  }
  if (trace.rows_resumed > 0) {
    staging.count("rows_resumed", static_cast<double>(trace.rows_resumed));
  }
  return Status::Ok();
}

Expected<services::HttpResponse> MorphologyService::fetch_cutout(
    ServiceTrace& trace, const std::string& url, double& effective_ms) {
  const double fetch_before_ms = fabric_.now_ms();
  auto response = client_.get(url);
  const double fetch_ms = fabric_.now_ms() - fetch_before_ms;
  trace.image_fetch_sim_ms += fetch_ms;
  if (response.ok()) trace.staging_wan_bytes += response->body.size();
  effective_ms = fetch_ms;
  // Hedged stage-in: a fetch slower than the hedge delay (a quantile of the
  // rolling primary-duration history) is re-issued against the archive's
  // mirror. First verified success wins — on the overlapped timeline the
  // mirror's copy lands at delay + hedge duration, so the effective arrival
  // is the minimum — and the loser's bytes are charged to
  // hedge_wasted_bytes (its stream is cancelled, but the WAN transfer
  // already happened).
  if (config_.hedge_stage_ins && hedge_history_.size() >= kHedgeMinSamples) {
    const double hedge_delay = quantile_of(hedge_history_, kHedgeQuantile);
    trace.hedge_delay_ms = hedge_delay;
    std::string hedge_url;
    if (const auto parsed = services::Url::parse(url); parsed.ok()) {
      const std::string mirror = client_.mirror_for(parsed->host);
      if (!mirror.empty()) {
        services::Url m = parsed.value();
        m.host = mirror;
        hedge_url = m.to_string();
      }
    }
    if (!hedge_url.empty() && hedge_delay > 0.0 && fetch_ms > hedge_delay) {
      const double hedge_before_ms = fabric_.now_ms();
      auto hedge = client_.get(hedge_url);
      const double hedge_ms = fabric_.now_ms() - hedge_before_ms;
      ++trace.hedged_fetches;
      const bool hedge_ok = hedge.ok() && hedge->status == 200;
      const bool primary_ok = response.ok() && response->status == 200;
      if (hedge_ok) trace.staging_wan_bytes += hedge->body.size();
      if (hedge_ok && (!primary_ok || hedge_delay + hedge_ms < fetch_ms)) {
        ++trace.hedge_wins;
        effective_ms = hedge_delay + hedge_ms;
        if (primary_ok) trace.hedge_wasted_bytes += response->body.size();
        response = std::move(hedge);
      } else if (hedge_ok) {
        trace.hedge_wasted_bytes += hedge->body.size();
      }
    }
  }
  hedge_history_.push_back(fetch_ms);
  if (hedge_history_.size() > kHedgeHistoryLimit) {
    hedge_history_.erase(hedge_history_.begin());
  }
  return response;
}

void MorphologyService::submit_kernel(Request& rq, std::size_t i,
                                      services::ReplicaCache::Payload payload) {
  // Pinned cutout bytes stay within kStagingByteBound, except that a
  // payload is always admitted when nothing is in flight, so one oversize
  // cutout cannot deadlock the loop.
  const std::size_t bytes = payload ? payload->size() : 0;
  {
    std::unique_lock lock(rq.inflight_mu);
    rq.inflight_cv.wait(lock, [&] {
      return staging_inflight_.load(std::memory_order_relaxed) == 0 ||
             staging_inflight_bytes_.load(std::memory_order_relaxed) + bytes <=
                 kStagingByteBound;
    });
    staging_inflight_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t pinned =
        staging_inflight_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    rq.trace.staging_inflight_bytes_hwm =
        std::max(rq.trace.staging_inflight_bytes_hwm, pinned);
  }
  const auto release = [this, &rq, bytes] {
    {
      std::lock_guard lock(rq.inflight_mu);
      staging_inflight_.fetch_sub(1, std::memory_order_relaxed);
      staging_inflight_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    }
    rq.inflight_cv.notify_one();
  };
  // The shared_ptr pins the bytes for the kernel even if the cache evicts
  // the entry mid-request.
  pool_.submit_cancellable(
      rq.ctx.cancel,
      [this, &rq, i, payload = std::move(payload), release] {
        obs::Span kernel =
            config_.tracer
                ? config_.tracer->span_under(rq.staging_span, "kernel.galmorph", "kernel")
                : obs::Span();
        core::GalMorphArgs args = config_.default_args;
        if (rq.z_col) {
          const auto z = rq.input.row(i)[*rq.z_col].as_number();
          if (z) args.redshift = *z;
        }
        core::GalMorphResult& result = rq.results[i];
        if (!payload || payload->empty()) {
          result.galaxy_id = rq.galaxy_ids[i];
          result.redshift = args.redshift;
          result.params.valid = false;
          result.params.failure_reason = "image unavailable";
        } else {
          result = core::run_gal_morph_bytes(rq.galaxy_ids[i], *payload, args);
        }
        kernel.count(result.params.valid ? "valid" : "invalid", 1.0);
        if (rq.journal) {
          // Journaled the moment it exists: a kill any time after this line
          // cannot lose this galaxy's science. append() is thread-safe.
          (void)rq.journal->append("row", rq.ck + rq.galaxy_ids[i],
                                   encode_result(result));
        }
        // After this line the slot is immutable from this thread; the writer
        // may serialize it (under its own lock) the moment the node outcome
        // lands.
        rq.writer.mark_kernel_done(i);
        release();
      },
      // A cancelled request's queued kernels drop without running, but the
      // in-flight bound is still released exactly once (the staging loop may
      // be parked on it) and the gauge returns to zero. No journal row, no
      // writer progress — the galaxy was never computed.
      release);
}

Expected<vds::Dag> MorphologyService::compose_workflow(Request& rq) {
  // (4a) The second stylesheet defines the catalog's derivations straight
  // into a Virtual Data Catalog (catalog_to_vdl prints the same VDL as
  // text), then (4b) Chimera composes.
  obs::Span span = obs::start_span(config_.tracer, "compute.vdl_compose", "compute");
  const auto t0 = std::chrono::steady_clock::now();
  vds::VirtualDataCatalog vdc;
  const auto vdl_bytes =
      define_catalog_derivations(rq.input, rq.out_name, config_.default_args, vdc);
  if (!vdl_bytes.ok()) return vdl_bytes.error();
  rq.trace.vdl_bytes = static_cast<double>(vdl_bytes.value());
  auto abstract = vds::compose_abstract_workflow(vdc, {rq.out_lfn});
  if (!abstract.ok()) return abstract.error();
  rq.trace.compose_wall_ms = wall_ms_since(t0);
  span.count("vdl_bytes", rq.trace.vdl_bytes);
  return abstract;
}

Status MorphologyService::plan_workflow(Request& rq, vds::Dag abstract) {
  // (4c) Pegasus planning. The generated concat transformation runs at the
  // service's own site (where the results will be gathered).
  (void)tc_.add({"concatMorph_" + rq.out_name, config_.cache_site,
                 "/grid/bin/concatMorph", {}});
  obs::Span span = obs::start_span(config_.tracer, "compute.plan", "compute");
  const auto t0 = std::chrono::steady_clock::now();
  pegasus::PlannerConfig planner_config = config_.planner;
  planner_config.output_site = config_.cache_site;
  pegasus::Planner planner(grid_, rls_, tc_, planner_config, config_.seed);
  auto plan = planner.plan(std::move(abstract));
  if (!plan.ok()) return plan.error();
  rq.trace.plan = std::move(plan.value());
  rq.trace.plan_wall_ms = wall_ms_since(t0);
  span.count("concrete_nodes", static_cast<double>(rq.trace.plan.concrete.num_nodes()));
  return Status::Ok();
}

Status MorphologyService::execute_workflow(Request& rq) {
  // (4d) Simulated DAGMan execution for the timing/accounting shape. The
  // node-retry budget is unified with the per-request retries the staging
  // phase already performs, so a permanent failure is not retried
  // multiplicatively across the two layers.
  ServiceTrace& trace = rq.trace;
  const vds::Dag& dag = trace.plan.concrete;
  obs::Span dag_span = obs::start_span(config_.tracer, "compute.dagman", "compute");
  grid::DagManSim dagman(
      grid_, job_cost_model(config_.cost),
      pegasus::unify_retry_budgets(config_.failure, config_.retry.max_attempts),
      config_.seed ^ 0xDA6);
  dagman.set_cancel_token(rq.ctx.cancel);
  if (rq.ctx.budget.bounded()) {
    // The DAG runs on its own simulated timeline starting at t=0 == now:
    // whatever budget survives staging/planning is the run's deadline. A
    // budget already at zero is caught here rather than letting 0 read as
    // "no deadline" in the executor.
    if (rq.ctx.expired(fabric_.now_ms())) {
      return Error(ErrorCode::kDeadlineExceeded,
                   "deadline budget exhausted before workflow dispatch");
    }
    dagman.set_deadline_s(rq.ctx.budget.remaining_ms(fabric_.now_ms()) / 1000.0);
  }
  // Each compute node becomes dispatchable the moment its data lands, while
  // other galaxies are still in flight. Only the timeline depends on this;
  // the per-(node, attempt) failure draws are schedule-invariant.
  dagman.set_ready_times(
      stage_in_ready_times(rq.fetch_timeline, trace.plan, config_.cache_site));
  rq.node_row.assign(dag.num_nodes(), kNoRow);
  for (std::size_t i = 0; i < rq.galaxy_ids.size(); ++i) {
    if (const std::size_t node = dag.index_of("m_" + rq.galaxy_ids[i]);
        node != vds::Dag::npos) {
      rq.node_row[node] = i;
    }
  }
  dagman.set_node_callback(
      [this, &rq](const grid::NodeResult& nr) { return on_node_final(rq, nr); });

  // Journal-completed nodes are cut out of the DAG via the rescue machinery
  // before execution: a resumed run re-executes only the unfinished tail.
  std::map<std::string, grid::NodeResult> prior;
  if (rq.journal) {
    for (const vds::DagNode& n : dag.nodes()) {
      if (!rq.journal->has("node", rq.ck + n.id)) continue;
      grid::NodeResult r;
      r.id = n.id;
      r.outcome = grid::NodeOutcome::kSucceeded;
      r.site = n.site;
      prior[n.id] = std::move(r);
    }
  }
  trace.nodes_resumed = prior.size();
  // Rescue rounds. Journal resume keeps its single implicit round;
  // config_.rescue_rounds budgets explicit rounds for failure and
  // whole-pool-outage recovery. Rounds reuse the same sim engine, so latched
  // dead pools and lifetime failure draws carry across; the unfinished
  // portion is re-mapped off dead pools before each rerun. An expired or
  // cancelled request burns no rounds: its nodes were dropped deliberately.
  RunTotals totals;
  std::size_t rounds_left =
      std::max<std::size_t>(config_.rescue_rounds, prior.empty() ? 0 : 1);
  if (prior.empty()) {
    auto report = dagman.run(dag);
    if (!report.ok()) return report.error();
    if (report->cancelled) {
      return Error(ErrorCode::kCancelled,
                   "workflow cancelled mid-execution: " + rq.ctx.cancel.reason());
    }
    totals.absorb(report.value());
    // Seed the outcome map too: rescue rounds merge against `prior`, and a
    // map missing the first run's successes would report them skipped.
    for (const grid::NodeResult& r : report->nodes) prior[r.id] = r;
    trace.execution = std::move(report.value());
  } else {
    rq.record.messages.push_back(format("resuming: %zu of %zu nodes journal-complete",
                                        prior.size(), dag.num_nodes()));
    trace.execution = grid::merge_node_outcomes(dag, prior);
    totals.merged = true;
  }
  while (rounds_left > 0 && !trace.execution.workflow_succeeded &&
         totals.expired == 0 && !rq.ctx.cancelled()) {
    --rounds_left;
    auto resume_dag = grid::make_rescue_dag(dag, trace.execution);
    if (!resume_dag.ok()) return resume_dag.error();
    if (resume_dag->empty()) break;
    if (!dagman.dead_sites().empty()) {
      auto remap = pegasus::remap_rescue_sites(resume_dag.value(), grid_,
                                               dagman.dead_sites(), tc_, rls_,
                                               config_.cache_site);
      if (!remap.ok()) return remap.error();
      if (remap->compute_remapped > 0 || remap->transfers_retargeted > 0) {
        rq.record.messages.push_back(
            format("rescue: re-mapped %zu jobs, re-pointed %zu transfers, "
                   "re-staged %zu inputs off %zu lost pool(s)",
                   remap->compute_remapped, remap->transfers_retargeted,
                   remap->inputs_restaged, dagman.dead_sites().size()));
      }
    }
    auto report = dagman.run(resume_dag.value());
    if (!report.ok()) return report.error();
    if (report->cancelled) {
      return Error(ErrorCode::kCancelled,
                   "rescue round cancelled mid-execution: " + rq.ctx.cancel.reason());
    }
    totals.absorb(report.value());
    for (const grid::NodeResult& r : report->nodes) prior[r.id] = r;
    trace.execution = grid::merge_node_outcomes(dag, prior);
    totals.merged = true;
  }
  totals.apply_to(trace.execution);
  if (trace.execution.jobs_expired > 0) {
    // The deadline gate dropped part of the workflow: surface expiry instead
    // of materializing a catalog with silently missing galaxies. Journal
    // rows and node completions persisted so far are kept — a resubmission
    // with a fresh budget resumes from them.
    dag_span.count("jobs_expired", static_cast<double>(trace.execution.jobs_expired));
    rq.record.messages.push_back(
        format("deadline: %zu compute node(s) expired before dispatch",
               trace.execution.jobs_expired));
    return Error(ErrorCode::kDeadlineExceeded,
                 format("deadline budget exhausted: %zu compute node(s) "
                        "expired before dispatch",
                        trace.execution.jobs_expired));
  }
  record_node_spans(dag_span.id(), trace.execution);
  dag_span.count("jobs", static_cast<double>(trace.execution.jobs_total));
  dag_span.end();
  (void)pegasus::commit_execution(dag, trace.execution, rls_, grid_);
  // Record provenance of every product this run materialized.
  std::vector<std::string> succeeded;
  succeeded.reserve(trace.execution.nodes.size());
  for (const grid::NodeResult& r : trace.execution.nodes) {
    if (r.outcome == grid::NodeOutcome::kSucceeded) succeeded.push_back(r.id);
  }
  provenance_.record_execution(dag, succeeded, trace.execution.makespan_seconds);
  return Status::Ok();
}

Status MorphologyService::on_node_final(Request& rq, const grid::NodeResult& nr) {
  // A final outcome lets the galaxy's row be absorbed once its kernel is
  // also done. With rescue rounds budgeted a failure is NOT final — a
  // later round may still succeed, and mark_node_final is first-wins — so
  // failed rows are left for materialize_catalog's sweep.
  const std::size_t node = rq.trace.plan.concrete.index_of(nr.id);
  if (const std::size_t row = node == vds::Dag::npos ? kNoRow : rq.node_row[node];
      row != kNoRow) {
    if (nr.outcome != grid::NodeOutcome::kFailed) {
      rq.writer.mark_node_final(row, false);
    } else if (config_.rescue_rounds == 0) {
      rq.writer.mark_node_final(row, true);
    }
  }
  if (rq.journal && nr.outcome == grid::NodeOutcome::kSucceeded &&
      !rq.journal->has("node", rq.ck + nr.id)) {
    if (const Status s = rq.journal->append("node", rq.ck + nr.id, ""); !s.ok()) {
      return s;
    }
  }
  ++nodes_completed_total_;
  if (config_.abort_after_nodes > 0 && !kill_fired_ &&
      nodes_completed_total_ >= config_.abort_after_nodes) {
    // Simulated submit-host death: the run aborts here, after the
    // completion above was journaled, so resume loses nothing. The kill is
    // one-shot — it takes down exactly the request whose DAG crosses the
    // threshold; later requests through the same (multi-tenant) service
    // run normally, as they would after a submit-host restart.
    kill_fired_ = true;
    return Error(ErrorCode::kAborted,
                 format("chaos kill after %zu node completions",
                        nodes_completed_total_));
  }
  return Status::Ok();
}

void MorphologyService::record_node_spans(std::uint64_t dag_span,
                                          const grid::RunReport& report) const {
  if (!config_.tracer) return;
  // Node executions are simulated, so their spans are recorded
  // retrospectively from the discrete-event report on the sim timeline.
  // Journal-resumed nodes (attempts == 0) never ran here — no span.
  for (const grid::NodeResult& r : report.nodes) {
    if (r.outcome == grid::NodeOutcome::kSkipped || r.attempts == 0) continue;
    config_.tracer->record_span(
        dag_span, "dag.node", "grid", r.start_seconds * 1000.0,
        (r.end_seconds - r.start_seconds) * 1000.0,
        {{"attempts", static_cast<double>(r.attempts)},
         {"failed", r.outcome == grid::NodeOutcome::kFailed ? 1.0 : 0.0}},
        {{"node", r.id}, {"site", r.site}});
  }
}

void MorphologyService::materialize_catalog(Request& rq) {
  ServiceTrace& trace = rq.trace;
  // Grid-level failures override kernel success (a job that never ran
  // produces no product). Sweep rows whose node outcome never went through
  // this run's event loop — journal-resumed nodes and outcomes recovered by
  // rescue-merge; mark_node_final is idempotent, so callback-finalized rows
  // are safe. The report is indexed by node id on first need.
  std::unordered_map<std::string_view, const grid::NodeResult*> outcome_of;
  for (std::size_t i = 0; i < rq.galaxy_ids.size(); ++i) {
    if (rq.writer.node_finalized(i)) continue;
    if (outcome_of.empty()) {
      for (const grid::NodeResult& r : trace.execution.nodes) {
        outcome_of.emplace(r.id, &r);
      }
    }
    const auto it = outcome_of.find("m_" + rq.galaxy_ids[i]);
    rq.writer.mark_node_final(
        i, it != outcome_of.end() && it->second->outcome == grid::NodeOutcome::kFailed);
  }
  for (const core::GalMorphResult& r : rq.results) {
    if (r.params.valid) {
      ++trace.valid_results;
    } else {
      ++trace.invalid_results;
    }
  }
  // (5) Materialize, register, and expose the output VOTable.
  auto& result = state_->results[rq.out_lfn];
  result.xml = rq.writer.finish();
  result.digest = catalog_digest(result.xml);
  const std::string& xml = result.xml;
  rls_.add(rq.out_lfn, config_.cache_site, rq.record.result_lfn);
  grid_.put_file(config_.cache_site, rq.out_lfn, xml.size());
  if (rq.journal) {
    // The finished catalog is the cluster's terminal record: a resumed
    // campaign serves these bytes directly (serve_materialized) instead of
    // re-running.
    (void)rq.journal->append("cluster", rq.out_lfn, xml);
  }
  // Staging arrivals are folded into the makespan as per-node ready times,
  // so the makespan alone is the end-to-end window.
  trace.total_sim_seconds = trace.execution.makespan_seconds;
}

Expected<MorphologyService::PollResult> MorphologyService::poll(
    const std::string& status_url) const {
  auto response = client_.get(status_url);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error(ErrorCode::kServiceUnavailable,
                 format("status poll returned %d", response->status));
  }
  PollResult out;
  for (const std::string& line : split(response->body_text(), '\n')) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "state") {
      out.state = value;
    } else if (key == "result") {
      out.result_url = value;
    } else if (key == "message") {
      out.messages.push_back(value);
    }
  }
  return out;
}

const std::string* MorphologyService::result_xml(const std::string& out_lfn) const {
  const auto it = state_->results.find(out_lfn);
  return it == state_->results.end() ? nullptr : &it->second.xml;
}

Expected<votable::Table> MorphologyService::fetch_result(
    const std::string& result_url) const {
  auto response = client_.get(result_url);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error(ErrorCode::kServiceUnavailable,
                 format("result fetch returned %d", response->status));
  }
  return votable::from_votable_xml(response->body_text());
}

void MorphologyService::register_metrics(obs::MetricsRegistry& registry) const {
  services::register_metrics(registry, cache_, "cache.replica");
  services::register_metrics(registry, client_, "client.compute");
  services::register_metrics(registry, pool_, "pool");
  const std::atomic<std::size_t>* inflight = &staging_inflight_;
  registry.register_gauge("staging.inflight", [inflight] {
    return static_cast<double>(inflight->load(std::memory_order_relaxed));
  });
  const std::atomic<std::size_t>* inflight_bytes = &staging_inflight_bytes_;
  registry.register_gauge("staging.inflight_bytes", [inflight_bytes] {
    return static_cast<double>(inflight_bytes->load(std::memory_order_relaxed));
  });
}

const ServiceTrace* MorphologyService::trace(const std::string& request_id) const {
  const auto it = state_->requests.find(request_id);
  return it == state_->requests.end() ? nullptr : &it->second.trace;
}

const ServiceTrace* MorphologyService::last_trace() const {
  if (state_->order.empty()) return nullptr;
  return trace(state_->order.back());
}

}  // namespace nvo::portal
