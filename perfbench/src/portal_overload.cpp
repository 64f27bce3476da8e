// portal_overload: open-loop multi-tenant load on portal::AsyncPortal at 2x
// the capacity calibrated by portal::measure_mean_service_ms. Arrivals are
// per-tenant Poisson processes with synchronized bursts, generated here from
// the seed; the main thread calls AsyncPortal::submit at each due time and step()
// in between, and every latency is measured from the request's due time, so
// a generator held up by a long step() is charged for the wait.
//
// Three tenants with DRR weights 2/1/1, two carrying a deadline SLO, whose
// overlapping cluster lists cover all 8 clusters at population_scale 0.05:
// duplicates exercise admission, deficit round robin, single-flight
// coalescing and memo reads, the mechanisms campaign_cold bypasses. The
// traffic shape is portal::LoadConfig's (bursts of 4 on a quarter of the
// arrivals, the default derivation only), as in portal::run_load and
// bench_portal.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "analysis/campaign.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "portal/async_portal.hpp"
#include "portal/load_gen.hpp"
#include "portal/transforms.hpp"
#include "votable/votable_io.hpp"

namespace perfbench {
namespace {

using namespace nvo;

constexpr double kPopulationScale = 0.05;
constexpr double kOverload = 2.0;
/// Independent arrival streams per run, each from its own fork of the seed;
/// the simulated figures pool them, so no single schedule sets the tail.
constexpr std::size_t kStreams = 3;
/// Offered requests per stream, split over tenants by rate share. The
/// first derivation of each cluster is cold and every later request for it
/// is served from the memo, so the cold requests and those queued behind
/// them are a fixed handful per stream (about 20). At 8000 arrivals they
/// stay well beyond the 1% tail and p99 describes the memo-served steady
/// state; each stream still completes far more than 1000 requests.
constexpr std::size_t kRequests = 8000;
/// SLO budget as a multiple of the calibrated service time (as bench_portal).
constexpr double kSloServiceMultiple = 25.0;
constexpr std::size_t kSetupShards = 8;

/// The archives serve the paper's universe (default seed); the benchmark
/// seed drives the traffic, which is this workload's input.
analysis::CampaignConfig campaign_config() {
  analysis::CampaignConfig config;
  config.population_scale = kPopulationScale;
  config.compute_threads = kKernelThreads;
  return config;
}

struct TenantSpec {
  std::string name;
  double weight;
  std::vector<std::size_t> clusters;  ///< indices into the universe
  double rate_share;
  bool slo;
};

const std::vector<TenantSpec>& tenants() {
  static const std::vector<TenantSpec> specs = {
      {"archive", 2.0, {0, 1, 2, 3, 4}, 0.4, true},
      {"survey", 1.0, {3, 4, 5, 6, 7}, 0.4, true},
      {"grad_student", 1.0, {0, 2, 5, 7}, 0.2, false},
  };
  return specs;
}

struct Arrival {
  double at_ms = 0.0;  ///< due time, relative to the session start
  std::size_t order = 0;
  std::size_t tenant = 0;
  std::string cluster;
  double deadline_ms = 0.0;
};

std::vector<Arrival> make_schedule(Rng root, const std::vector<std::string>& clusters,
                                   double mean_service_ms) {
  const portal::LoadConfig shape;  // burst_fraction and burst_size
  const double total_rate = kOverload / mean_service_ms;  // per sim ms
  std::vector<Arrival> schedule;
  std::size_t order = 0;
  for (std::size_t t = 0; t < tenants().size(); ++t) {
    const TenantSpec& spec = tenants()[t];
    Rng rng = root.fork();
    const auto quota = static_cast<std::size_t>(spec.rate_share * kRequests);
    const double rate = total_rate * spec.rate_share;
    double at = 0.0;
    std::size_t produced = 0;
    std::size_t cursor = 0;
    while (produced < quota) {
      at += rng.exponential(rate);
      std::size_t n = rng.uniform() < shape.burst_fraction ? shape.burst_size : 1;
      n = std::min(n, quota - produced);
      for (std::size_t i = 0; i < n; ++i) {
        schedule.push_back({at, order++, t, clusters[spec.clusters[cursor]],
                            spec.slo ? kSloServiceMultiple * mean_service_ms : 0.0});
        cursor = (cursor + 1) % spec.clusters.size();
      }
      produced += n;
    }
  }
  std::sort(schedule.begin(), schedule.end(), [](const Arrival& a, const Arrival& b) {
    return a.at_ms != b.at_ms ? a.at_ms < b.at_ms : a.order < b.order;
  });
  return schedule;
}

/// Everything one session yields. Simulated-clock figures are a pure
/// function of the seed and must repeat exactly across sessions.
struct Session {
  double wall_s = 0.0;
  double submit_us = 0.0;  ///< traced: wall in submit() calls
  double step_us = 0.0;    ///< traced: wall in step() calls
  std::size_t steps = 0;
  double pool_idle_ms = 0.0;
  double sim_span_ms = 0.0;
  std::size_t submitted = 0, shed = 0, completed = 0, failed = 0, expired = 0;
  std::size_t nonterminal = 0;
  std::size_t slo_requests = 0, slo_met = 0;
  std::size_t galaxies = 0;
  std::vector<double> latency_ms, queue_wait_ms, service_ms, gen_late_ms;
  portal::AsyncPortal::Stats stats;
  std::size_t queue_hwm = 0;
  double http_requests = 0.0;
  double replica_hits = 0.0;
  bool memo_identical = true;

  /// The simulated-clock outcome, for the determinism check.
  std::vector<double> sim_signature() const {
    std::vector<double> s = {sim_span_ms, static_cast<double>(shed),
                             static_cast<double>(completed),
                             static_cast<double>(stats.recomputes),
                             static_cast<double>(stats.memo_hits)};
    s.insert(s.end(), latency_ms.begin(), latency_ms.end());
    return s;
  }
};

Session run_session(const analysis::CampaignConfig& config,
                    const std::vector<Arrival>& schedule, bool traced,
                    bool check_memo) {
  Session out;
  analysis::Campaign campaign(config);
  services::HttpFabric& fabric = campaign.fabric();
  portal::AsyncPortalConfig pcfg;
  pcfg.admission.per_tenant_queue_limit = 4;  // bench_portal's limits
  pcfg.admission.global_queue_limit = 8;
  portal::AsyncPortal async(fabric, campaign.federation(), campaign.compute_service(),
                            pcfg);
  for (const sim::Cluster& c : campaign.universe().clusters()) {
    portal::ClusterEntry entry;
    entry.name = c.name();
    entry.position = c.center();
    entry.redshift = c.redshift();
    entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
    async.add_cluster(entry);
  }
  for (const TenantSpec& t : tenants()) async.add_tenant(t.name, t.weight);
  fabric.reset_metrics();

  struct Issued {
    std::string id;
    double due_ms;
    double deadline_ms;
  };
  std::vector<Issued> issued;
  issued.reserve(schedule.size());
  const double idle0 = traced ? settled_idle_ms(campaign.compute_service().pool()) : 0.0;
  const double start_ms = fabric.now_ms();
  const auto t0 = SteadyClock::now();
  std::size_t next = 0;
  while (next < schedule.size() || !async.idle()) {
    if (next < schedule.size() && schedule[next].at_ms <= fabric.now_ms() - start_ms) {
      const Arrival& a = schedule[next++];
      portal::Submission sub;
      {
        std::optional<ScopedUs> span;
        if (traced) span.emplace(out.submit_us);
        sub = async.submit(tenants()[a.tenant].name, a.cluster, "", a.deadline_ms);
      }
      ++out.submitted;
      if (!sub.admitted) ++out.shed;
      if (a.deadline_ms > 0.0) ++out.slo_requests;  // a shed one misses its SLO
      if (sub.admitted) issued.push_back({sub.id, start_ms + a.at_ms, a.deadline_ms});
      continue;
    }
    bool stepped = false;
    {
      std::optional<ScopedUs> span;
      if (traced) span.emplace(out.step_us);
      stepped = async.step();
    }
    if (stepped) {
      ++out.steps;
      continue;
    }
    if (next >= schedule.size()) break;
    fabric.advance_clock(schedule[next].at_ms - (fabric.now_ms() - start_ms));
  }
  out.wall_s = seconds_since(t0);
  out.sim_span_ms = fabric.now_ms() - start_ms;
  if (traced) out.pool_idle_ms = settled_idle_ms(campaign.compute_service().pool()) - idle0;
  out.stats = async.stats();
  out.queue_hwm = async.admission_stats().max_queued;
  out.http_requests = static_cast<double>(fabric.metrics().requests);
  out.replica_hits =
      static_cast<double>(campaign.compute_service().replica_cache().stats().hits);

  // Memo identity: a memo serve hands back the catalog the leader's
  // derivation materialized; it must parse and re-serialize to exactly the
  // bytes the compute service holds for that cluster.
  const portal::MorphologyService& compute = campaign.compute_service();
  for (const Issued& r : issued) {
    const auto status = async.status(r.id);
    if (!status.ok()) {  // aged out of the bounded terminal ring: expired
      ++out.expired;
      continue;
    }
    if (!status->terminal()) ++out.nonterminal;
    const bool completed = status->state == portal::RequestState::kDone ||
                           status->state == portal::RequestState::kPartial;
    out.failed += status->state == portal::RequestState::kFailed ? 1 : 0;
    out.expired += status->state == portal::RequestState::kExpired ? 1 : 0;
    out.gen_late_ms.push_back(status->submit_ms - r.due_ms);
    if (status->start_ms > 0.0) out.queue_wait_ms.push_back(status->start_ms - r.due_ms);
    if (status->start_ms > 0.0 && status->finish_ms > 0.0) {
      out.service_ms.push_back(status->finish_ms - status->start_ms);
    }
    const double latency = status->finish_ms - r.due_ms;
    if (r.deadline_ms > 0.0 && completed && latency <= r.deadline_ms) ++out.slo_met;
    if (!completed) continue;
    ++out.completed;
    out.latency_ms.push_back(latency);
    out.galaxies += status->galaxies;
    if (check_memo && status->memo_hit) {
      const votable::Table* table = async.result(r.id);
      const std::string* leader =
          compute.result_xml(portal::output_votable_lfn(status->cluster));
      out.memo_identical = out.memo_identical && table != nullptr && leader != nullptr &&
                           votable::to_votable_xml(*table) == *leader;
    }
  }
  return out;
}

}  // namespace

Result run_portal_overload(const Options& options) {
  Result result;
  const analysis::CampaignConfig config = campaign_config();

  // Set-up: warm every cluster any tenant requests, then calibrate the
  // single-stream service time through the synchronous portal (which also
  // renders whatever the warm-up did not cover).
  ShardedSetup shards;
  auto t0 = SteadyClock::now();
  analysis::Campaign calibration(config);
  double other_setup_s = seconds_since(t0);
  const double synthesize_us = warm_render_cache(calibration.universe(), kSetupShards, shards);
  t0 = SteadyClock::now();
  std::vector<std::string> clusters;
  for (const sim::Cluster& c : calibration.universe().clusters()) clusters.push_back(c.name());
  // The calibration sums simulated stage times plus the portal's wall-clock
  // merge (well under a millisecond); rounding to 10 ms strips that term so
  // the arrival schedule is a function of the seed alone.
  const double mean_service_ms =
      10.0 * std::round(portal::measure_mean_service_ms(calibration.portal(), clusters) / 10.0);
  other_setup_s += seconds_since(t0);
  const double setup_s = other_setup_s + shards.estimate_s();
  result.check(clusters.size() == 8, "portal universe does not have 8 clusters");
  if (mean_service_ms <= 0.0) {
    result.check(false, "service-time calibration failed");
    return result;
  }
  std::vector<std::vector<Arrival>> schedules;
  Rng root(options.seed ^ 0x5C4ED01Eull);
  for (std::size_t k = 0; k < kStreams; ++k) {
    schedules.push_back(make_schedule(root.fork(), clusters, mean_service_ms));
  }

  // Sessions cycle through the streams; the first session of each stream
  // is the reference its later sessions must repeat exactly. Since they
  // repeat it, gal_per_s times each stream by its fastest untraced session,
  // which co-tenant load on a shared host slows far less than the median.
  std::vector<double> untraced_s, traced_s, gal_rates, wall_us_per_request;
  std::vector<double> fastest_s(kStreams, std::numeric_limits<double>::infinity());
  std::vector<std::optional<Session>> firsts(kStreams);
  Session traced_sum;
  std::uint64_t leaks = 0;
  std::size_t session = 0;
  run_for(options.seconds, 2 * kStreams, [&] {
    const bool traced = options.trace && session % 2 == 1;
    const std::size_t stream = session % kStreams;
    std::optional<Session>& first = firsts[stream];
    const auto before = sim::RenderCache::instance().stats();
    Session s = run_session(config, schedules[stream], traced, !first.has_value());
    ++session;
    leaks += render_cache_leaks(before, sim::RenderCache::instance().stats());
    result.attempted += s.submitted;
    result.failed += s.failed;
    if (traced) {
      traced_s.push_back(s.wall_s);
      traced_sum.submit_us += s.submit_us;
      traced_sum.step_us += s.step_us;
      traced_sum.submitted += s.submitted;
      traced_sum.steps += s.steps;
      traced_sum.wall_s += s.wall_s;
      traced_sum.pool_idle_ms += s.pool_idle_ms;
    } else {
      untraced_s.push_back(s.wall_s);
      fastest_s[stream] = std::min(fastest_s[stream], s.wall_s);
      gal_rates.push_back(static_cast<double>(s.galaxies) / s.wall_s);
      wall_us_per_request.push_back(s.wall_s * 1e6 / static_cast<double>(s.submitted));
    }
    if (!first) {
      first = std::move(s);
      result.check(first->nonterminal == 0, "portal requests left non-terminal");
      result.check(first->memo_identical,
                   "memo-served catalog differs from its leader's");
      result.check(first->stats.recomputes < first->completed,
                   "memoization did not save any recompute");
      result.check(first->completed >= 1000, "fewer than 1000 completed requests");
    } else {
      result.check(s.sim_signature() == first->sim_signature(),
                   "simulated portal outcome differs between sessions");
    }
  });
  result.check(leaks == 0, "RenderCache misses or clears inside the timed phase");

  // Simulated outcome pooled over the streams' reference sessions.
  Session s;
  for (const std::optional<Session>& f : firsts) {
    s.submitted += f->submitted;
    s.shed += f->shed;
    s.completed += f->completed;
    s.failed += f->failed;
    s.expired += f->expired;
    s.slo_requests += f->slo_requests;
    s.slo_met += f->slo_met;
    s.sim_span_ms += f->sim_span_ms;
    s.http_requests += f->http_requests;
    s.replica_hits += f->replica_hits;
    s.queue_hwm = std::max(s.queue_hwm, f->queue_hwm);
    s.stats.admitted += f->stats.admitted;
    s.stats.recomputes += f->stats.recomputes;
    s.stats.memo_hits += f->stats.memo_hits;
    s.stats.coalesced += f->stats.coalesced;
    for (auto [dst, src] : {std::pair{&s.latency_ms, &f->latency_ms},
                            std::pair{&s.queue_wait_ms, &f->queue_wait_ms},
                            std::pair{&s.service_ms, &f->service_ms},
                            std::pair{&s.gen_late_ms, &f->gen_late_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }

  const double submitted = static_cast<double>(s.submitted);
  const double goodput = static_cast<double>(s.completed) / (s.sim_span_ms / 1e3);
  const double shed_share = static_cast<double>(s.shed) / submitted;
  const double attainment =
      s.slo_requests > 0 ? static_cast<double>(s.slo_met) / static_cast<double>(s.slo_requests)
                         : 1.0;
  const double error_share = static_cast<double>(s.failed + s.expired) / submitted;
  if (!options.trace) {
    double galaxies = 0.0;
    for (const std::optional<Session>& f : firsts) galaxies += static_cast<double>(f->galaxies);
    const double fastest_total_s = std::accumulate(fastest_s.begin(), fastest_s.end(), 0.0);
    result.metric("setup_s", setup_s, "s", Clock::kWall);
    result.metric("gal_per_s", galaxies / fastest_total_s, "1/s", Clock::kWall);
    result.metric("latency_p50_ms", quantile(s.latency_ms, 0.50), "ms", Clock::kSim);
    result.metric("latency_p99_ms", quantile(s.latency_ms, 0.99), "ms", Clock::kSim);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB", Clock::kWall);
  }
  result.note("median_session_gal_per_s", median(gal_rates), "1/s", Clock::kWall);
  result.note("goodput_per_s", goodput, "1/s", Clock::kSim);
  result.note("shed_share", shed_share, "share", Clock::kNone);
  result.note("deadline_attainment", attainment, "share", Clock::kSim);
  result.note("error_share", error_share, "share", Clock::kNone);
  result.note("wall_us_per_request", median(wall_us_per_request), "us", Clock::kWall);
  result.note("makespan_sim_s", s.sim_span_ms / 1e3, "s", Clock::kSim);
  result.note("mean_service_ms", mean_service_ms, "ms", Clock::kSim);
  result.note("submitted", submitted, "count", Clock::kNone);
  result.note("completed", static_cast<double>(s.completed), "count", Clock::kNone);
  result.note("recomputes", static_cast<double>(s.stats.recomputes), "count", Clock::kNone);
  result.note("memo_hits", static_cast<double>(s.stats.memo_hits), "count", Clock::kNone);
  result.note("sessions", static_cast<double>(untraced_s.size() + traced_s.size()), "count",
              Clock::kNone);
  if (!options.trace) return result;

  result.metric("portal.queue_wait_p50_ms", quantile(s.queue_wait_ms, 0.50), "ms",
                Clock::kSim);
  result.metric("portal.queue_wait_p99_ms", quantile(s.queue_wait_ms, 0.99), "ms",
                Clock::kSim);
  result.metric("portal.service_p99_ms", quantile(s.service_ms, 0.99), "ms", Clock::kSim);
  result.metric("portal.gen_late_p99_ms", quantile(s.gen_late_ms, 0.99), "ms", Clock::kSim);
  result.metric("services.memo_hit_share",
                static_cast<double>(s.stats.memo_hits) /
                    static_cast<double>(std::max<std::uint64_t>(1, s.stats.admitted)),
                "share", Clock::kNone);
  result.metric("portal.recomputes", static_cast<double>(s.stats.recomputes), "count",
                Clock::kNone);
  result.metric("portal.coalesced", static_cast<double>(s.stats.coalesced), "count",
                Clock::kNone);
  result.metric("services.admission_queue_hwm", static_cast<double>(s.queue_hwm), "count",
                Clock::kNone);
  result.metric("services.http_requests", s.http_requests, "count", Clock::kNone);
  result.metric("services.replica_cache_hits", s.replica_hits, "count", Clock::kNone);
  result.metric("portal.submit_wall_us",
                traced_sum.submit_us / static_cast<double>(traced_sum.submitted), "us",
                Clock::kWall);
  result.metric("portal.step_wall_us",
                traced_sum.step_us / static_cast<double>(std::max<std::size_t>(1, traced_sum.steps)),
                "us", Clock::kWall);
  result.metric("grid.pool_busy_share",
                1.0 - traced_sum.pool_idle_ms /
                          (static_cast<double>(kKernelThreads) * traced_sum.wall_s * 1e3),
                "share", Clock::kWall);
  result.metric("sim.synthesize_us", synthesize_us, "us", Clock::kWall);
  const double traced_wall_us = 1e6 * std::accumulate(traced_s.begin(), traced_s.end(), 0.0);
  result.metric("trace.residual_share",
                (traced_wall_us - traced_sum.submit_us - traced_sum.step_us) / traced_wall_us,
                "share", Clock::kWall);
  result.metric("trace.overhead_share", median(traced_s) / median(untraced_s) - 1.0,
                "share", Clock::kWall);
  result.metric("e2e.goodput_per_s", goodput, "1/s", Clock::kSim);
  result.metric("e2e.shed_share", shed_share, "share", Clock::kNone);
  result.metric("e2e.deadline_attainment", attainment, "share", Clock::kSim);
  result.metric("e2e.error_share", error_share, "share", Clock::kNone);
  result.metric("e2e.wall_us_per_request", median(wall_us_per_request), "us", Clock::kWall);
  result.metric("e2e.makespan_sim_s", s.sim_span_ms / 1e3, "s", Clock::kSim);

  replay_universe_kernel(calibration.universe(), result);
  return result;
}

}  // namespace perfbench
