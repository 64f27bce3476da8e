#include "portal/async_portal.hpp"

#include <algorithm>
#include <utility>

#include "common/strings.hpp"
#include "portal/transforms.hpp"
#include "votable/votable_io.hpp"

namespace nvo::portal {

namespace {
/// Bucket bounds (simulated ms) of every request-latency histogram.
const std::vector<double> kLatencyBoundsMs = {50,     100,    200,   500,   1000,
                                              2000,   5000,   10000, 20000, 50000,
                                              100000, 200000, 500000};
/// Admission byte estimate per request (queued-bytes budget accounting).
constexpr std::size_t kEstimatedRequestBytes = 96 * 1024;
}  // namespace

const char* to_string(RequestState state) {
  switch (state) {
    case RequestState::kQueued: return "queued";
    case RequestState::kRunning: return "running";
    case RequestState::kPartial: return "partial";
    case RequestState::kDone: return "done";
    case RequestState::kFailed: return "failed";
    case RequestState::kShed: return "shed";
    case RequestState::kExpired: return "expired";
    case RequestState::kCancelled: return "cancelled";
  }
  return "?";
}

const char* AsyncPortal::stage_name(const Request& req) {
  switch (req.stage) {
    case Stage::kStart: return "start";
    case Stage::kPipeline: return to_string(req.run.stage);
    case Stage::kMemoServe: return "memo_serve";
    case Stage::kFinished: return "finished";
  }
  return "?";
}

AsyncPortal::AsyncPortal(services::HttpFabric& fabric,
                         const services::Federation& federation,
                         MorphologyService& compute, AsyncPortalConfig config)
    : fabric_(fabric),
      federation_(federation),
      compute_(compute),
      config_(std::move(config)),
      admission_(config_.admission),
      drr_(config_.drr),
      memo_cache_(config_.memo_cache),
      ids_("preq-"),
      requests_(std::make_shared<RequestStore>()) {
  // Evicted memo entries silently demote future duplicates to full runs;
  // the hook keeps accounting honest and drops the entry's parsed table, so
  // parsed catalogs stay bounded by the memo budget. Runs outside every
  // cache lock (see the EvictionCallback lock-discipline contract), so it
  // could even re-enter the cache.
  memo_cache_.set_eviction_callback([this](const std::string& lfn) {
    ++stats_.memo_evictions;
    parsed_memo_.erase(lfn);
  });

  // The portal's own Fig. 6-style status endpoint: poll-able over the
  // fabric, one id per request, rendered from the request record on read.
  // The record store is shared so the handler stays valid independent of
  // the portal's lifetime.
  auto records = requests_;
  fabric_.route(
      config_.host, "/status",
      [records](const services::Url& url) -> Expected<services::HttpResponse> {
        const auto it = url.query.find("id");
        if (it == url.query.end()) {
          return Error(ErrorCode::kInvalidArgument, "missing id parameter");
        }
        const auto found = records->find(it->second);
        if (found == records->end()) {
          return Error(ErrorCode::kNotFound, "no request " + it->second);
        }
        return services::HttpResponse::text(status_line(found->second), "text/plain");
      },
      services::EndpointModel{2.0, 100.0, 0.0, true});
}

void AsyncPortal::add_cluster(ClusterEntry entry) {
  derivations_[entry.name] = make_derivation(entry.name, "");
  clusters_.push_back(entry);
  for (auto& [name, tenant] : tenants_) tenant->portal->add_cluster(entry);
}

void AsyncPortal::add_tenant(const std::string& name, double weight) {
  if (tenants_.count(name)) return;
  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  tenant->weight = weight;
  // Per-tenant portal over the shared compute service: breaker, retry and
  // quarantine state are scoped to the tenant (label separates the jitter
  // streams too, keeping multi-tenant runs deterministic).
  PortalConfig pcfg = config_.portal;
  tenant->portal = std::make_unique<Portal>(fabric_, federation_, compute_, pcfg);
  for (const ClusterEntry& c : clusters_) tenant->portal->add_cluster(c);
  drr_.set_weight(name, weight);
  if (registry_ && !tenant_hists_.count(name)) {
    tenant_hists_[name] =
        registry_->histogram("portal.async.latency_ms." + name, kLatencyBoundsMs);
  }
  tenants_.emplace(name, std::move(tenant));
}

double AsyncPortal::now_ms() const { return fabric_.now_ms(); }

std::shared_ptr<const AsyncPortal::Derivation> AsyncPortal::make_derivation(
    const std::string& cluster, const std::string& params) const {
  auto names = std::make_shared<Derivation>();
  names->memo_key = cluster + "\x1f" + params;
  names->out_name = params.empty() ? cluster : cluster + "_" + params;
  names->out_lfn = output_votable_lfn(names->out_name);
  names->result_url =
      "http://" + compute_.config().host + "/results?name=" + names->out_lfn;
  return names;
}

std::string AsyncPortal::status_url(const std::string& id) const {
  return "http://" + config_.host + "/status?id=" + id;
}

Submission AsyncPortal::submit(const std::string& tenant_name,
                               const std::string& cluster,
                               const std::string& params, double deadline_ms) {
  Submission out;
  const auto tit = tenants_.find(tenant_name);
  if (tit == tenants_.end()) {
    out.reason = "unknown tenant " + tenant_name;
    return out;
  }
  Tenant& tenant = *tit->second;
  const auto known = derivations_.find(cluster);
  if (known == derivations_.end()) {
    out.reason = "unknown cluster " + cluster;
    return out;
  }

  ++stats_.submitted;
  ++tenant.stats.submitted;

  std::string id = ids_.next();
  Request& req = requests_->try_emplace(id).first->second;
  req.id = std::move(id);
  req.tenant = tenant_name;
  req.run.cluster = cluster;
  req.params = params;
  req.names = params.empty() ? known->second : make_derivation(cluster, params);
  req.run.out_name = req.names->out_name;
  req.submit_ms = now_ms();
  // The absolute deadline is fixed HERE, at submission — every layer below
  // computes its remaining budget against this instant, so queue time counts
  // against the SLO just like service time does.
  req.ctx.budget = services::DeadlineBudget::after(req.submit_ms, deadline_ms);
  out.id = req.id;

  const auto decision =
      admission_.offer(tenant_name, kEstimatedRequestBytes);
  if (!decision.admitted) {
    // Explicit shed: instantaneous, with a congestion-scaled retry-after.
    // The record stays poll-able so the client sees WHY it was turned away.
    req.state = RequestState::kShed;
    req.retry_after_ms = decision.retry_after_ms;
    req.error = services::to_string(decision.reason);
    req.finish_ms = req.submit_ms;
    ++stats_.shed;
    ++tenant.stats.shed;
    out.admitted = false;
    out.reason = req.error;
    out.retry_after_ms = decision.retry_after_ms;
    publish_status(req);
    retire_to_ring(req.id);
    return out;
  }

  req.admission_held = true;
  ++stats_.admitted;
  out.admitted = true;
  publish_status(req);
  tenant.queue.push_back(req.id);
  drr_.activate(tenant_name);
  return out;
}

bool AsyncPortal::step() {
  const std::string who = drr_.pick();
  if (who.empty()) return false;
  Tenant& tenant = *tenants_.at(who);
  const double t0 = now_ms();
  run_unit(tenant);
  // Charge the ACTUAL simulated cost of the unit (every fabric round-trip
  // and the compute makespan advance the clock), floored so local-only
  // units still rotate the ring.
  const double cost = std::max(now_ms() - t0, config_.min_stage_charge_ms);
  drr_.charge(who, cost);
  tenant.stats.busy_ms += cost;
  refresh_activation(tenant);
  return true;
}

std::size_t AsyncPortal::drain(std::size_t max_steps) {
  std::size_t steps = 0;
  while (steps < max_steps && step()) ++steps;
  return steps;
}

bool AsyncPortal::idle() const { return drr_.active_count() == 0; }

void AsyncPortal::run_unit(Tenant& tenant) {
  if (!tenant.running.empty()) {
    advance(tenant, requests_->at(tenant.running));
    return;
  }
  if (tenant.queue.empty()) return;
  const std::string id = tenant.queue.front();
  tenant.queue.pop_front();
  start_request(tenant, id);
}

void AsyncPortal::retire_to_ring(const std::string& id) {
  // Bounded-memory terminal records: under sustained overload (or a cancel
  // storm) the reject/abandon path must not accumulate state, so shed,
  // expired and cancelled records share one ring and only the freshest stay
  // poll-able. The id just pushed is the ring's newest entry, so the trim
  // below can never erase the record mid-use.
  terminal_ring_.push_back(id);
  while (config_.shed_record_limit > 0 &&
         terminal_ring_.size() > config_.shed_record_limit) {
    requests_->erase(terminal_ring_.front());
    terminal_ring_.pop_front();
  }
}

Status AsyncPortal::cancel(const std::string& id, const std::string& reason) {
  const auto it = requests_->find(id);
  if (it == requests_->end()) {
    return Error(ErrorCode::kNotFound, "no request " + id);
  }
  Request& req = it->second;
  if (req.state != RequestState::kQueued && req.state != RequestState::kRunning) {
    return Error(ErrorCode::kInvalidArgument,
                 "request " + id + " already terminal (" +
                     to_string(req.state) + ")");
  }
  req.ctx.cancel.cancel(reason);
  Tenant& tenant = *tenants_.at(req.tenant);

  // Queued in the tenant FIFO: drop it there and terminalize immediately.
  auto& q = tenant.queue;
  if (const auto qit = std::find(q.begin(), q.end(), id); qit != q.end()) {
    q.erase(qit);
    cancel_request(tenant, req, "cancelled: " + reason);
    refresh_activation(tenant);
    return Status::Ok();
  }

  // Parked follower: unpark from its leader's list and terminalize. The
  // leader (someone else's identical derivation) keeps running.
  if (req.coalesced && tenant.running != id) {
    for (auto& [leader_id, parked] : followers_) {
      const auto fit = std::find(parked.begin(), parked.end(), id);
      if (fit == parked.end()) continue;
      parked.erase(fit);
      cancel_request(tenant, req, "cancelled: " + reason);
      return Status::Ok();
    }
  }

  // Running: the token is flagged; every layer below unwinds at its next
  // cooperative checkpoint (staging fetch boundary, kernel dequeue, DAG
  // event), and the request terminalizes at its next scheduling unit. No
  // immediate finish here — a cancel arriving from inside a fabric handler
  // mid-stage must not re-enter the scheduler under the running stage.
  return Status::Ok();
}

void AsyncPortal::start_request(Tenant& tenant, const std::string& id) {
  Request& req = requests_->at(id);
  if (req.ctx.cancel.cancelled()) {
    return cancel_request(tenant, req, "cancelled: " + req.ctx.cancel.reason());
  }
  if (req.ctx.expired(now_ms())) {
    release_admission(req);
    expire_request(tenant, req, "deadline budget exhausted in queue");
    return;
  }
  if (memo_ready(req)) {
    // Completed-derivation memo hit: the request still runs (and pays for)
    // one catalog fetch through its own tenant's client, but skips the
    // whole derivation pipeline.
    release_admission(req);
    req.state = RequestState::kRunning;
    req.stage = Stage::kMemoServe;
    req.start_ms = now_ms();
    tenant.running = id;
    publish_status(req);
    return;
  }
  if (const auto leader = inflight_.find(req.names->memo_key);
      leader != inflight_.end() && leader->second != id) {
    // Single-flight: an identical derivation is in flight — park behind it
    // rather than racing it. Admission stays held (the request is still
    // occupying the system); the tenant's slot frees up for other work.
    // (A request finding ITSELF in the registry was re-elected leader after
    // the previous leader cancelled; it proceeds to run below.)
    return park_behind(leader->second, req);
  }
  release_admission(req);
  inflight_[req.names->memo_key] = id;
  req.leader = true;
  req.state = RequestState::kRunning;
  req.stage = Stage::kPipeline;
  req.start_ms = now_ms();
  tenant.running = id;
  publish_status(req);
}

void AsyncPortal::advance(Tenant& tenant, Request& req) {
  // Cooperative checkpoints at stage granularity: a token flagged while a
  // stage was in flight (or between scheduling units) terminalizes here,
  // before the next stage spends anything.
  if (req.ctx.cancel.cancelled()) {
    return cancel_request(tenant, req, "cancelled: " + req.ctx.cancel.reason());
  }
  if (req.ctx.expired(now_ms())) {
    return expire_request(
        tenant, req, format("deadline budget exhausted at stage %s", stage_name(req)));
  }
  // Federation queries, cutout resolution and result fetches all go through
  // the tenant's own resilient client: scope the request's remaining budget
  // and token onto it for the duration of this stage, so per-call deadlines
  // clamp to what's left and backoff never sleeps past the SLO.
  services::ResilientClient::ScopedContext scoped(tenant.portal->client(),
                                                  req.ctx);
  if (req.stage == Stage::kMemoServe) return serve_from_memo(tenant, req);
  if (req.stage != Stage::kPipeline) return;

  using RunStage = Portal::AnalysisRun::Stage;
  Portal::AnalysisRun& run = req.run;
  const bool computing = run.stage == RunStage::kCompute;
  tenant.portal->advance(run, req.ctx);
  if (computing && run.stage == RunStage::kMerge) {
    if (const ServiceTrace* st = compute_.trace(run.trace.compute_request_id)) {
      // The service reports its staging + workflow makespan as a trace
      // quantity; surface it on the shared timeline so every tenant's
      // latency — and the DRR's cost accounting — sees the compute time.
      fabric_.advance_clock(st->total_sim_seconds * 1000.0);
      if (st->cache_hit || st->journal_hit) {
        ++stats_.compute_cache_hits;
      } else {
        ++stats_.recomputes;
      }
    }
  }
  switch (run.stage) {
    case RunStage::kDone:
      return finish(tenant, req,
                    run.trace.archives_degraded() > 0 ? RequestState::kPartial
                                                      : RequestState::kDone);
    case RunStage::kFailed:
      return fail_request(tenant, req, run.error().to_string());
    case RunStage::kCancelled:
      return cancel_request(tenant, req, run.error().message);
    case RunStage::kExpired:
      return expire_request(tenant, req, run.error().message);
    default:
      return;
  }
}

void AsyncPortal::serve_from_memo(Tenant& tenant, Request& req) {
  const auto payload = memo_cache_.get(req.names->out_lfn);
  const std::string* xml = compute_.result_xml(req.names->out_lfn);
  if (!payload || !xml) {
    // Evicted (or the backing store lost it) between scheduling and serve:
    // demote to a full derivation, re-entering the single-flight protocol.
    if (const auto leader = inflight_.find(req.names->memo_key);
        leader != inflight_.end()) {
      tenant.running.clear();
      return park_behind(leader->second, req);
    }
    inflight_[req.names->memo_key] = req.id;
    req.leader = true;
    req.stage = Stage::kPipeline;
    return;
  }
  // Serve the memoized catalog through the tenant's own client — a real
  // fabric fetch (latency, integrity verification, breaker accounting)
  // against the RLS-backed result store, not a zero-cost map lookup.
  auto response = tenant.portal->fetch_result(req.names->result_url);
  if (!response.ok()) return fail_request(tenant, req, response.error().to_string());
  auto table = memo_catalog(req.names->out_lfn, payload, response->body, req.run.trace);
  if (!table.ok()) return fail_request(tenant, req, table.error().to_string());
  req.memo_table = std::move(table.value());
  req.run.trace.galaxies = req.memo_table->num_rows();
  req.memo_hit = true;
  ++stats_.memo_hits;
  finish(tenant, req, RequestState::kDone);
}

Expected<std::shared_ptr<const votable::Table>> AsyncPortal::memo_catalog(
    const std::string& lfn, const services::ReplicaCache::Payload& payload,
    const std::vector<std::uint8_t>& bytes, PortalTrace& trace) {
  // Only bytes identical to the memo payload (which the cache re-verified
  // at get) may share its parsed table. A digest match is not proof of
  // identity, so compare the bytes themselves.
  const bool memoized = bytes == *payload;
  if (memoized) {
    const auto it = parsed_memo_.find(lfn);
    if (it != parsed_memo_.end() && it->second.payload == payload) {
      trace.valid = it->second.valid;
      trace.invalid = it->second.invalid;
      return it->second.table;
    }
  }
  ++stats_.memo_parses;
  auto parsed =
      votable::from_votable_xml(std::string(bytes.begin(), bytes.end()));
  if (!parsed.ok()) return parsed.error();
  auto table = std::make_shared<const votable::Table>(std::move(parsed.value()));
  trace.tally(*table);
  if (memoized) {
    parsed_memo_[lfn] = ParsedMemo{payload, table, trace.valid, trace.invalid};
  }
  return table;
}

void AsyncPortal::park_behind(const std::string& leader_id, Request& req) {
  req.coalesced = true;
  req.state = RequestState::kQueued;
  ++stats_.coalesced;
  followers_[leader_id].push_back(req.id);
  publish_status(req);
}

void AsyncPortal::requeue(Request& req, bool front) {
  req.stage = Stage::kStart;
  req.state = RequestState::kQueued;
  std::deque<std::string>& queue = tenants_.at(req.tenant)->queue;
  if (front) {
    queue.push_front(req.id);
  } else {
    queue.push_back(req.id);
  }
  publish_status(req);
  drr_.activate(req.tenant);
}

void AsyncPortal::cancel_request(Tenant& tenant, Request& req, std::string error) {
  release_admission(req);
  req.error = std::move(error);
  req.retry_after_ms = admission_.retry_after_hint();
  finish(tenant, req, RequestState::kCancelled);
}

void AsyncPortal::fail_request(Tenant& tenant, Request& req,
                               const std::string& error) {
  req.error = error;
  finish(tenant, req, RequestState::kFailed);
}

void AsyncPortal::expire_request(Tenant& tenant, Request& req,
                                 const std::string& why) {
  req.error = why;
  // Consistent back-pressure: an expired client retries against the same
  // congestion floors a shed one does.
  req.retry_after_ms = admission_.retry_after_hint();
  // Partial results: whatever the pipeline had built when the budget ran out
  // (typically the federation catalog with cutout refs) stays retrievable —
  // the tenant paid for it.
  Portal::AnalysisRun& run = req.run;
  if (run.catalog.num_rows() == 0 && run.with_refs.num_rows() > 0) {
    run.catalog = run.with_refs;
    run.catalog.name = run.cluster + "_partial";
  }
  finish(tenant, req, RequestState::kExpired);
}

void AsyncPortal::finish(Tenant& tenant, Request& req, RequestState state) {
  req.state = state;
  req.stage = Stage::kFinished;
  req.finish_ms = now_ms();
  if (tenant.running == req.id) tenant.running.clear();
  switch (state) {
    case RequestState::kDone: ++stats_.done; ++tenant.stats.done; break;
    case RequestState::kPartial: ++stats_.partial; ++tenant.stats.partial; break;
    case RequestState::kFailed: ++stats_.failed; ++tenant.stats.failed; break;
    case RequestState::kExpired: ++stats_.expired; ++tenant.stats.expired; break;
    case RequestState::kCancelled:
      ++stats_.cancelled;
      ++tenant.stats.cancelled;
      break;
    default: break;
  }
  observe_latency(req);
  publish_status(req);
  if (config_.portal.tracer) {
    config_.portal.tracer->record_span(
        0, "async.request", "portal", req.submit_ms, req.finish_ms - req.submit_ms,
        {{"galaxies", static_cast<double>(req.run.trace.galaxies)},
         {"valid", static_cast<double>(req.run.trace.valid)},
         {"archives_degraded",
          static_cast<double>(req.run.trace.archives_degraded())}},
        {{"tenant", req.tenant},
         {"request", req.id},
         {"cluster", req.run.cluster},
         {"state", to_string(state)},
         {"memo", req.memo_hit ? "hit" : (req.coalesced ? "coalesced" : "miss")}});
  }

  // Terminal reject/abandon records age out through the shared bounded ring
  // (the same O(1)-memory contract shedding has; the id just pushed is the
  // newest, so `req` stays valid through the bookkeeping below).
  if (state == RequestState::kExpired || state == RequestState::kCancelled) {
    retire_to_ring(req.id);
  }

  if (!req.leader) return;
  // Leader bookkeeping: resolve the single-flight entry and promote every
  // parked follower. A clean result is memoized and followers ride the memo
  // fast path (queue front — they have waited the longest); a degraded or
  // failed result is NOT memoized and followers re-run independently, so
  // one tenant's chaos never propagates a bad catalog to another tenant.
  inflight_.erase(req.names->memo_key);
  const auto fit = followers_.find(req.id);
  if (state == RequestState::kDone) memoize(req);
  if (fit == followers_.end()) return;
  std::vector<std::string> promoted = std::move(fit->second);
  followers_.erase(fit);
  if ((state == RequestState::kCancelled || state == RequestState::kExpired) &&
      !promoted.empty()) {
    // Leader re-election: the leader abandoned the derivation, but its
    // followers still want the result. The longest-waiting follower inherits
    // leadership — it takes the single-flight slot, re-runs the derivation
    // from the front of its tenant's queue, and the remaining followers stay
    // parked behind IT instead of fanning out into duplicate runs.
    const std::string new_leader_id = promoted.front();
    promoted.erase(promoted.begin());
    Request& new_leader = requests_->at(new_leader_id);
    new_leader.leader = true;
    inflight_[new_leader.names->memo_key] = new_leader_id;
    if (!promoted.empty()) {
      followers_[new_leader_id] = std::move(promoted);
    }
    requeue(new_leader, /*front=*/true);
    return;
  }
  for (const std::string& fid : promoted) {
    requeue(requests_->at(fid), /*front=*/state == RequestState::kDone);
  }
}

void AsyncPortal::release_admission(Request& req) {
  if (!req.admission_held) return;
  req.admission_held = false;
  admission_.release(req.tenant, kEstimatedRequestBytes);
}

void AsyncPortal::refresh_activation(Tenant& tenant) {
  if (tenant.running.empty() && tenant.queue.empty()) {
    drr_.deactivate(tenant.name);
  } else {
    drr_.activate(tenant.name);
  }
}

void AsyncPortal::memoize(const Request& req) {
  const std::string* xml = compute_.result_xml(req.names->out_lfn);
  if (!xml) return;
  memo_cache_.put(req.names->out_lfn,
                  std::vector<std::uint8_t>(xml->begin(), xml->end()));
}

bool AsyncPortal::memo_ready(const Request& req) const {
  // Valid only while BOTH layers hold the catalog: the portal's memo cache
  // (byte-budgeted; evictions demote to recompute) and the compute
  // service's RLS-backed result store that /results serves from.
  return memo_cache_.contains(req.names->out_lfn) &&
         compute_.result_xml(req.names->out_lfn) != nullptr;
}

void AsyncPortal::publish_status(Request& req) {
  req.shown_state = req.state;
  req.shown_stage = stage_name(req);
}

std::string AsyncPortal::status_line(const Request& req) {
  // Only the shown state and stage can lag the record. The retry-after and
  // error it prints for a terminal state were set before that state was
  // published, and a terminal record never changes again.
  std::string line = "id=" + req.id + " tenant=" + req.tenant +
                     " cluster=" + req.run.cluster +
                     " state=" + to_string(req.shown_state) +
                     " stage=" + req.shown_stage;
  if (req.shown_state == RequestState::kShed ||
      req.shown_state == RequestState::kExpired ||
      req.shown_state == RequestState::kCancelled) {
    line += format(" retry_after_ms=%.0f reason=%s", req.retry_after_ms,
                   req.error.c_str());
  }
  if (!req.error.empty() && req.shown_state == RequestState::kFailed) {
    line += " error=" + req.error;
  }
  return line;
}

void AsyncPortal::observe_latency(const Request& req) {
  const double latency = req.finish_ms - req.submit_ms;
  Tenant& tenant = *tenants_.at(req.tenant);
  if (req.state == RequestState::kDone || req.state == RequestState::kPartial) {
    tenant.stats.total_latency_ms += latency;
    tenant.stats.max_latency_ms = std::max(tenant.stats.max_latency_ms, latency);
  }
  if (latency_hist_) latency_hist_->observe(latency);
  const auto hit = tenant_hists_.find(req.tenant);
  if (hit != tenant_hists_.end() && hit->second) hit->second->observe(latency);
}

Expected<RequestStatus> AsyncPortal::status(const std::string& id) const {
  const auto it = requests_->find(id);
  if (it == requests_->end()) {
    return Error(ErrorCode::kNotFound, "no request " + id);
  }
  const Request& req = it->second;
  RequestStatus out;
  out.id = req.id;
  out.tenant = req.tenant;
  out.cluster = req.run.cluster;
  out.params = req.params;
  out.state = req.state;
  out.stage = stage_name(req);
  out.submit_ms = req.submit_ms;
  out.start_ms = req.start_ms;
  out.finish_ms = req.finish_ms;
  out.retry_after_ms = req.retry_after_ms;
  out.deadline_ms = req.ctx.budget.bounded() ? req.ctx.budget.deadline_ms : 0.0;
  out.error = req.error;
  out.memo_hit = req.memo_hit;
  out.coalesced = req.coalesced;
  out.galaxies = req.run.trace.galaxies;
  out.valid = req.run.trace.valid;
  out.invalid = req.run.trace.invalid;
  out.archives_degraded = req.run.trace.archives_degraded();
  return out;
}

const votable::Table* AsyncPortal::result(const std::string& id) const {
  const auto it = requests_->find(id);
  if (it == requests_->end()) return nullptr;
  const Request& req = it->second;
  // An expired request surfaces the partial catalog it had built when the
  // budget ran out (nullptr when it expired before producing anything).
  if (req.state == RequestState::kExpired) {
    return req.run.catalog.num_rows() > 0 ? &req.run.catalog : nullptr;
  }
  if (req.state != RequestState::kDone && req.state != RequestState::kPartial) {
    return nullptr;
  }
  return req.memo_table ? req.memo_table.get() : &req.run.catalog;
}

AsyncPortal::Stats AsyncPortal::stats() const {
  // The gauges are derived from the scheduler's own structures, so they can
  // never drift from what status() reports.
  Stats out = stats_;
  for (const auto& [name, tenant] : tenants_) {
    out.queued += tenant->queue.size();
    if (!tenant->running.empty()) ++out.running;
  }
  for (const auto& [leader, parked] : followers_) out.waiting += parked.size();
  out.parsed_entries = parsed_memo_.size();
  return out;
}

Expected<TenantStats> AsyncPortal::tenant_stats(const std::string& name) const {
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Error(ErrorCode::kNotFound, "no tenant " + name);
  }
  return it->second->stats;
}

void AsyncPortal::register_metrics(obs::MetricsRegistry& registry) {
  registry_ = &registry;
  latency_hist_ = registry.histogram("portal.async.latency_ms", kLatencyBoundsMs);
  for (const auto& [name, tenant] : tenants_) {
    (void)tenant;
    if (!tenant_hists_.count(name)) {
      tenant_hists_[name] =
          registry.histogram("portal.async.latency_ms." + name, kLatencyBoundsMs);
    }
  }
  registry.register_collector(
      "portal.async", [this](std::map<std::string, double>& counters,
                             std::map<std::string, double>& gauges) {
        const Stats s = stats();
        counters["portal.async.submitted"] = static_cast<double>(s.submitted);
        counters["portal.async.admitted"] = static_cast<double>(s.admitted);
        counters["portal.async.shed"] = static_cast<double>(s.shed);
        counters["portal.async.done"] = static_cast<double>(s.done);
        counters["portal.async.partial"] = static_cast<double>(s.partial);
        counters["portal.async.failed"] = static_cast<double>(s.failed);
        counters["portal.async.expired"] = static_cast<double>(s.expired);
        counters["portal.async.cancelled"] =
            static_cast<double>(s.cancelled);
        counters["portal.async.recomputes"] =
            static_cast<double>(s.recomputes);
        counters["portal.async.compute_cache_hits"] =
            static_cast<double>(s.compute_cache_hits);
        counters["portal.async.memo_hits"] = static_cast<double>(s.memo_hits);
        counters["portal.async.coalesced"] = static_cast<double>(s.coalesced);
        counters["portal.async.memo_evictions"] =
            static_cast<double>(s.memo_evictions);
        counters["portal.memo.parses"] = static_cast<double>(s.memo_parses);
        gauges["portal.memo.parsed_entries"] =
            static_cast<double>(s.parsed_entries);
        gauges["portal.async.queued"] = static_cast<double>(s.queued);
        gauges["portal.async.running"] = static_cast<double>(s.running);
        gauges["portal.async.waiting"] = static_cast<double>(s.waiting);
        const services::AdmissionStats a = admission_.stats();
        counters["portal.async.admission.shed_tenant_queue"] =
            static_cast<double>(a.shed_tenant_queue);
        counters["portal.async.admission.shed_global_queue"] =
            static_cast<double>(a.shed_global_queue);
        counters["portal.async.admission.shed_byte_budget"] =
            static_cast<double>(a.shed_byte_budget);
        gauges["portal.async.admission.queued_bytes"] =
            static_cast<double>(a.queued_bytes);
        gauges["portal.async.admission.max_queued"] =
            static_cast<double>(a.max_queued);
        for (const auto& [name, tenant] : tenants_) {
          const std::string prefix = "portal.async.tenant." + name + ".";
          counters[prefix + "submitted"] =
              static_cast<double>(tenant->stats.submitted);
          counters[prefix + "shed"] = static_cast<double>(tenant->stats.shed);
          counters[prefix + "done"] = static_cast<double>(tenant->stats.done);
          counters[prefix + "partial"] =
              static_cast<double>(tenant->stats.partial);
          counters[prefix + "failed"] = static_cast<double>(tenant->stats.failed);
          counters[prefix + "expired"] =
              static_cast<double>(tenant->stats.expired);
          counters[prefix + "cancelled"] =
              static_cast<double>(tenant->stats.cancelled);
          counters[prefix + "busy_ms"] = tenant->stats.busy_ms;
          gauges[prefix + "queued"] = static_cast<double>(tenant->queue.size());
        }
      });
}

}  // namespace nvo::portal
