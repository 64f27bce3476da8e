// Tests for the multi-tenant async portal: admission control and load
// shedding, deficit-round-robin fairness, cross-request memoization with
// single-flight coalescing, chaos blast-radius containment, and the
// open-loop load generator.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "obs/metrics.hpp"
#include "portal/async_portal.hpp"
#include "portal/load_gen.hpp"
#include "services/admission.hpp"
#include "services/federation.hpp"
#include "sim/universe.hpp"

namespace nvo::portal {
namespace {

// ---------------------------------------------------------------------------
// AdmissionController + DeficitRoundRobin (pure unit tests)
// ---------------------------------------------------------------------------

TEST(Admission, BoundsPerTenantAndGlobalQueues) {
  services::AdmissionConfig config;
  config.per_tenant_queue_limit = 2;
  config.global_queue_limit = 3;
  services::AdmissionController ctl(config);

  EXPECT_TRUE(ctl.offer("a", 0).admitted);
  EXPECT_TRUE(ctl.offer("a", 0).admitted);
  const auto tenant_full = ctl.offer("a", 0);
  EXPECT_FALSE(tenant_full.admitted);
  EXPECT_EQ(tenant_full.reason, services::ShedReason::kTenantQueueFull);
  EXPECT_GE(tenant_full.retry_after_ms, config.retry_after_floor_ms);

  EXPECT_TRUE(ctl.offer("b", 0).admitted);
  const auto global_full = ctl.offer("b", 0);
  EXPECT_FALSE(global_full.admitted);
  EXPECT_EQ(global_full.reason, services::ShedReason::kGlobalQueueFull);
  // Back-pressure scales with the backlog the caller would join.
  EXPECT_GT(global_full.retry_after_ms, tenant_full.retry_after_ms);

  ctl.release("a", 0);
  EXPECT_TRUE(ctl.offer("b", 0).admitted);

  const auto stats = ctl.stats();
  EXPECT_EQ(stats.offered, 6u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.shed_tenant_queue, 1u);
  EXPECT_EQ(stats.shed_global_queue, 1u);
  EXPECT_EQ(stats.queued, 3u);
  EXPECT_EQ(stats.max_queued, 3u);  // the bound held
}

TEST(Admission, ByteBudgetSheds) {
  services::AdmissionConfig config;
  config.per_tenant_queue_limit = 0;  // unlimited
  config.global_queue_limit = 0;
  config.queued_bytes_budget = 100;
  services::AdmissionController ctl(config);
  EXPECT_TRUE(ctl.offer("a", 60).admitted);
  const auto over = ctl.offer("a", 60);
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, services::ShedReason::kByteBudget);
  ctl.release("a", 60);
  EXPECT_TRUE(ctl.offer("a", 60).admitted);
}

TEST(Drr, AlternatesEqualWeightsUnderEqualCharges) {
  services::DeficitRoundRobin drr(services::DrrConfig{100.0});
  drr.set_weight("a", 1.0);
  drr.set_weight("b", 1.0);
  drr.activate("a");
  drr.activate("b");
  // Charging a full quantum per pick forces strict alternation.
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    const std::string who = drr.pick();
    order.push_back(who);
    drr.charge(who, 100.0);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(Drr, WeightsProportionService) {
  services::DeficitRoundRobin drr(services::DrrConfig{100.0});
  drr.set_weight("heavy", 3.0);
  drr.set_weight("light", 1.0);
  drr.activate("heavy");
  drr.activate("light");
  std::map<std::string, int> served;
  for (int i = 0; i < 400; ++i) {
    const std::string who = drr.pick();
    ++served[who];
    drr.charge(who, 100.0);  // unit cost => service ratio tracks weights
  }
  const double ratio = static_cast<double>(served["heavy"]) /
                       static_cast<double>(served["light"]);
  EXPECT_NEAR(ratio, 3.0, 0.25);
}

TEST(Admission, FirstShedAtEmptyQueueStillHandsBackAUsableHint) {
  // Regression: the byte-budget check samples the backlog *after* the shed
  // decision — the very first over-budget offer sees zero queued requests.
  // The hint must still come back at the floor, not zero.
  services::AdmissionConfig config;
  config.per_tenant_queue_limit = 0;
  config.global_queue_limit = 0;
  config.queued_bytes_budget = 100;
  services::AdmissionController ctl(config);
  const auto shed = ctl.offer("a", 1000);  // nothing queued yet
  ASSERT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, services::ShedReason::kByteBudget);
  EXPECT_EQ(shed.retry_after_ms, config.retry_after_floor_ms);
  EXPECT_GT(shed.retry_after_ms, 0.0);
}

TEST(Admission, RetryAfterNeverGoesNegative) {
  // A misconfigured (negative) floor must clamp to zero, and a populated
  // backlog must never drag the hint below the floor.
  services::AdmissionConfig config;
  config.per_tenant_queue_limit = 1;
  config.retry_after_floor_ms = -250.0;
  services::AdmissionController ctl(config);
  EXPECT_TRUE(ctl.offer("a", 0).admitted);
  const auto shed = ctl.offer("a", 0);
  ASSERT_FALSE(shed.admitted);
  EXPECT_GE(shed.retry_after_ms, 0.0);

  services::AdmissionConfig sane;
  sane.per_tenant_queue_limit = 1;
  services::AdmissionController ctl2(sane);
  EXPECT_TRUE(ctl2.offer("a", 0).admitted);
  EXPECT_GE(ctl2.offer("a", 0).retry_after_ms, sane.retry_after_floor_ms);
}

TEST(Drr, LateActivationIsFairFromAnyCursorPosition) {
  // Sweep: a tenant that activates while the scheduler's cursor sits at any
  // position in any size ring must converge to an equal service share — no
  // arrival position may be silently skipped for a round.
  for (std::size_t ring = 1; ring <= 4; ++ring) {
    for (std::size_t cursor = 0; cursor < ring; ++cursor) {
      services::DeficitRoundRobin drr(services::DrrConfig{100.0});
      std::vector<std::string> tenants;
      for (std::size_t i = 0; i < ring; ++i) {
        tenants.push_back("t" + std::to_string(i));
        drr.set_weight(tenants.back(), 1.0);
        drr.activate(tenants.back());
      }
      // Advance the cursor to the swept position by serving whole quanta.
      for (std::size_t i = 0; i < cursor; ++i) drr.charge(drr.pick(), 100.0);

      drr.set_weight("late", 1.0);
      drr.activate("late");
      tenants.push_back("late");

      std::map<std::string, int> served;
      const int kPicks = 100 * static_cast<int>(tenants.size());
      for (int i = 0; i < kPicks; ++i) {
        const std::string who = drr.pick();
        ASSERT_FALSE(who.empty());
        ++served[who];
        drr.charge(who, 100.0);
      }
      int lo = kPicks, hi = 0;
      for (const std::string& t : tenants) {
        lo = std::min(lo, served[t]);
        hi = std::max(hi, served[t]);
      }
      // Equal weights, unit-quantum charges: shares may differ only by the
      // partial round in flight when the window closed.
      EXPECT_LE(hi - lo, 2) << "ring=" << ring << " cursor=" << cursor
                            << " late tenant served " << served["late"];
    }
  }
}

TEST(Drr, DeactivationForfeitsCreditAndKeepsCursorValid) {
  services::DeficitRoundRobin drr(services::DrrConfig{50.0});
  for (const char* t : {"a", "b", "c"}) {
    drr.set_weight(t, 1.0);
    drr.activate(t);
  }
  EXPECT_EQ(drr.active_count(), 3u);
  // Drive b into deep credit, then deactivate: credit must not survive.
  drr.charge("a", 500.0);
  drr.charge("c", 500.0);
  EXPECT_EQ(drr.pick(), "b");
  drr.deactivate("b");
  EXPECT_EQ(drr.active_count(), 2u);
  drr.activate("b");
  EXPECT_EQ(drr.deficit("b"), 0.0);  // fresh start, no hoarded credit
  // All in debt now; pick must still terminate via quantum top-ups.
  EXPECT_FALSE(drr.pick().empty());
}

// ---------------------------------------------------------------------------
// AsyncPortal against the full simulated stack
// ---------------------------------------------------------------------------

analysis::CampaignConfig small_campaign() {
  analysis::CampaignConfig config;
  config.population_scale = 0.02;  // clusters of 8..12 galaxies
  config.compute_threads = 2;
  return config;
}

std::unique_ptr<AsyncPortal> make_portal(analysis::Campaign& campaign,
                                         AsyncPortalConfig config = {}) {
  auto portal = std::make_unique<AsyncPortal>(
      campaign.fabric(), campaign.federation(), campaign.compute_service(),
      config);
  for (const sim::Cluster& c : campaign.universe().clusters()) {
    ClusterEntry entry;
    entry.name = c.name();
    entry.position = c.center();
    entry.redshift = c.redshift();
    entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
    portal->add_cluster(entry);
  }
  return portal;
}

std::string cluster_name(const analysis::Campaign& campaign, std::size_t i) {
  const auto& clusters = campaign.universe().clusters();
  return clusters[i % clusters.size()].name();
}

TEST(AsyncPortal, SubmitPollDrainLifecycle) {
  analysis::Campaign campaign(small_campaign());
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");
  obs::MetricsRegistry registry;
  portal->register_metrics(registry);

  const std::string cluster = cluster_name(campaign, 0);
  const Submission sub = portal->submit("alice", cluster);
  ASSERT_TRUE(sub.admitted);
  ASSERT_FALSE(sub.id.empty());

  auto queued = portal->status(sub.id);
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued->state, RequestState::kQueued);
  EXPECT_FALSE(queued->terminal());

  const std::size_t steps = portal->drain();
  EXPECT_GT(steps, 0u);
  EXPECT_TRUE(portal->idle());

  auto done = portal->status(sub.id);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, RequestState::kDone);
  EXPECT_TRUE(done->terminal());
  EXPECT_GT(done->galaxies, 0u);
  EXPECT_GT(done->valid, 0u);
  EXPECT_GE(done->finish_ms, done->submit_ms);
  EXPECT_GT(done->latency_ms(), 0.0);

  const votable::Table* result = portal->result(sub.id);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->num_rows(), done->galaxies);
  // Morphology columns actually merged in.
  EXPECT_TRUE(result->column_index("morph_t").has_value() ||
              result->column_index("valid").has_value());

  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("portal.async.submitted"), 1.0);
  EXPECT_EQ(snapshot.counter("portal.async.done"), 1.0);
  const auto hist = snapshot.histograms.find("portal.async.latency_ms");
  ASSERT_NE(hist, snapshot.histograms.end());
  EXPECT_EQ(hist->second.total_count, 1u);
  EXPECT_GT(hist->second.quantile(0.5), 0.0);
}

TEST(AsyncPortal, RejectsUnknownTenantAndCluster) {
  analysis::Campaign campaign(small_campaign());
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");

  const Submission no_tenant = portal->submit("mallory", cluster_name(campaign, 0));
  EXPECT_TRUE(no_tenant.id.empty());
  EXPECT_FALSE(no_tenant.admitted);
  EXPECT_NE(no_tenant.reason.find("unknown tenant"), std::string::npos);

  const Submission no_cluster = portal->submit("alice", "NGC_NOWHERE");
  EXPECT_TRUE(no_cluster.id.empty());
  EXPECT_FALSE(no_cluster.admitted);
  EXPECT_NE(no_cluster.reason.find("unknown cluster"), std::string::npos);

  EXPECT_FALSE(portal->status("preq-999").ok());
  EXPECT_EQ(portal->result("preq-999"), nullptr);
}

TEST(AsyncPortal, OverloadShedsFastWithRetryAfterAndBoundedQueues) {
  analysis::Campaign campaign(small_campaign());
  AsyncPortalConfig config;
  config.admission.per_tenant_queue_limit = 2;
  config.admission.global_queue_limit = 3;
  auto portal = make_portal(campaign, config);
  portal->add_tenant("alice");
  portal->add_tenant("bob");

  // Flood without giving the scheduler a single step: only the bounded
  // queues absorb; the rest must shed instantly and explicitly.
  std::vector<Submission> subs;
  for (int i = 0; i < 6; ++i) subs.push_back(portal->submit("alice", cluster_name(campaign, 0)));
  for (int i = 0; i < 4; ++i) subs.push_back(portal->submit("bob", cluster_name(campaign, 1)));

  std::size_t admitted = 0;
  std::size_t shed = 0;
  double last_retry = 0.0;
  for (const Submission& s : subs) {
    ASSERT_FALSE(s.id.empty());  // shed requests still get an id
    if (s.admitted) {
      ++admitted;
      continue;
    }
    ++shed;
    EXPECT_FALSE(s.reason.empty());
    EXPECT_GE(s.retry_after_ms, config.admission.retry_after_floor_ms);
    last_retry = s.retry_after_ms;
    const auto status = portal->status(s.id);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, RequestState::kShed);
    EXPECT_TRUE(status->terminal());
    EXPECT_EQ(status->retry_after_ms, s.retry_after_ms);
  }
  EXPECT_EQ(admitted, 3u);  // global bound, not the sum of tenant bounds
  EXPECT_EQ(shed, 7u);
  EXPECT_GT(last_retry, 0.0);
  EXPECT_EQ(portal->admission_stats().max_queued, 3u);

  // Shedding was instantaneous: no simulated time passed at intake.
  EXPECT_EQ(portal->now_ms(), 0.0);

  // The admitted backlog still completes, and completions free admission
  // slots for later traffic.
  portal->drain();
  EXPECT_EQ(portal->stats().done + portal->stats().partial, 3u);
  EXPECT_TRUE(portal->submit("alice", cluster_name(campaign, 0)).admitted);
  portal->drain();

  const auto alice = portal->tenant_stats("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(alice->submitted, 7u);
  EXPECT_GT(alice->shed, 0u);
}

TEST(AsyncPortal, ShedRecordsAreBoundedUnderSustainedOverload) {
  analysis::Campaign campaign(small_campaign());
  AsyncPortalConfig config;
  config.admission.per_tenant_queue_limit = 1;
  config.admission.global_queue_limit = 1;
  config.shed_record_limit = 2;
  auto portal = make_portal(campaign, config);
  portal->add_tenant("flood");

  const std::string cluster = cluster_name(campaign, 0);
  ASSERT_TRUE(portal->submit("flood", cluster).admitted);
  std::vector<std::string> shed_ids;
  for (int i = 0; i < 5; ++i) {
    const Submission s = portal->submit("flood", cluster);
    ASSERT_FALSE(s.admitted);
    shed_ids.push_back(s.id);
  }
  // Only the freshest two shed records remain poll-able; older ones aged
  // out (that is the bounded-memory contract, not an error).
  EXPECT_FALSE(portal->status(shed_ids[0]).ok());
  EXPECT_FALSE(portal->status(shed_ids[2]).ok());
  EXPECT_TRUE(portal->status(shed_ids[3]).ok());
  EXPECT_TRUE(portal->status(shed_ids[4]).ok());
  EXPECT_EQ(portal->stats().shed, 5u);  // accounting is not aged out
  portal->drain();
  EXPECT_EQ(portal->stats().done + portal->stats().partial, 1u);
}

TEST(AsyncPortal, CancelQueuedReleasesSlotImmediately) {
  analysis::Campaign campaign(small_campaign());
  AsyncPortalConfig config;
  config.admission.per_tenant_queue_limit = 2;
  config.admission.global_queue_limit = 2;
  auto portal = make_portal(campaign, config);
  portal->add_tenant("alice");

  const std::string cluster = cluster_name(campaign, 0);
  const Submission keep = portal->submit("alice", cluster);
  const Submission drop = portal->submit("alice", cluster_name(campaign, 1));
  ASSERT_TRUE(keep.admitted);
  ASSERT_TRUE(drop.admitted);
  ASSERT_FALSE(portal->submit("alice", cluster).admitted);  // queues full

  ASSERT_TRUE(portal->cancel(drop.id, "client gave up").ok());
  const auto dropped = portal->status(drop.id);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->state, RequestState::kCancelled);
  EXPECT_TRUE(dropped->terminal());
  EXPECT_NE(dropped->error.find("client gave up"), std::string::npos);
  // The freed slot is immediately usable, and the back-pressure hint obeys
  // the same floor the admission controller quotes for sheds.
  EXPECT_GE(dropped->retry_after_ms, config.admission.retry_after_floor_ms);
  EXPECT_TRUE(portal->submit("alice", cluster).admitted);

  // Unknown and already-terminal requests are rejected, not re-cancelled.
  EXPECT_FALSE(portal->cancel("preq-999").ok());
  EXPECT_FALSE(portal->cancel(drop.id).ok());

  portal->drain();
  EXPECT_EQ(portal->stats().cancelled, 1u);
  EXPECT_EQ(portal->stats().done + portal->stats().partial, 2u);
  EXPECT_EQ(portal->stats().queued, 0u);
  EXPECT_EQ(portal->stats().running, 0u);
}

TEST(AsyncPortal, DeadlineExpiresIntoExpiredStateWithRetryAfter) {
  analysis::Campaign campaign(small_campaign());
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");

  // A 1 ms end-to-end budget cannot cover any real derivation: the request
  // must terminalize as expired at a cooperative checkpoint, not complete
  // and not fail.
  const Submission sub =
      portal->submit("alice", cluster_name(campaign, 0), "", 1.0);
  ASSERT_TRUE(sub.admitted);
  portal->drain();

  const auto status = portal->status(sub.id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, RequestState::kExpired);
  EXPECT_TRUE(status->terminal());
  EXPECT_GT(status->deadline_ms, 0.0);  // the absolute deadline is surfaced
  EXPECT_GT(status->retry_after_ms, 0.0);
  EXPECT_EQ(portal->stats().expired, 1u);
  EXPECT_EQ(portal->stats().done, 0u);
  EXPECT_EQ(portal->stats().failed, 0u);
  const auto alice = portal->tenant_stats("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(alice->expired, 1u);

  // An unbounded resubmission of the same cluster completes normally: the
  // expiry left no residue in the memo/single-flight registries.
  const Submission retry = portal->submit("alice", cluster_name(campaign, 0));
  ASSERT_TRUE(retry.admitted);
  portal->drain();
  EXPECT_EQ(portal->status(retry.id)->state, RequestState::kDone);
}

TEST(AsyncPortal, TerminalRingAgesOutExpiredAndCancelledWithShed) {
  analysis::Campaign campaign(small_campaign());
  AsyncPortalConfig config;
  config.shed_record_limit = 2;
  auto portal = make_portal(campaign, config);
  portal->add_tenant("alice");

  // Three cancelled requests churn the bounded terminal ring exactly like
  // shed records: only the freshest two stay poll-able.
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    const Submission s = portal->submit("alice", cluster_name(campaign, i));
    ASSERT_TRUE(s.admitted);
    ids.push_back(s.id);
    ASSERT_TRUE(portal->cancel(s.id).ok());
  }
  EXPECT_FALSE(portal->status(ids[0]).ok());
  EXPECT_TRUE(portal->status(ids[1]).ok());
  EXPECT_TRUE(portal->status(ids[2]).ok());

  // An expired terminal shares the same ring: it evicts the oldest record.
  const Submission exp =
      portal->submit("alice", cluster_name(campaign, 0), "", 1.0);
  ASSERT_TRUE(exp.admitted);
  portal->drain();
  ASSERT_TRUE(portal->status(exp.id).ok());
  EXPECT_EQ(portal->status(exp.id)->state, RequestState::kExpired);
  EXPECT_FALSE(portal->status(ids[1]).ok());
  EXPECT_TRUE(portal->status(ids[2]).ok());

  // Aging out of the ring never loses accounting.
  EXPECT_EQ(portal->stats().cancelled, 3u);
  EXPECT_EQ(portal->stats().expired, 1u);
}

TEST(AsyncPortal, CancelledLeaderHandsSingleFlightToFollower) {
  analysis::Campaign campaign(small_campaign());
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");
  portal->add_tenant("bob");
  portal->add_tenant("carol");

  // Identical derivation from three tenants: alice leads, bob and carol
  // park behind her single-flight slot.
  const std::string cluster = cluster_name(campaign, 0);
  const Submission lead = portal->submit("alice", cluster);
  const Submission follow = portal->submit("bob", cluster);
  const Submission parked = portal->submit("carol", cluster);
  ASSERT_TRUE(lead.admitted);
  ASSERT_TRUE(follow.admitted);
  ASSERT_TRUE(parked.admitted);
  for (int i = 0; i < 500 && portal->stats().waiting < 2; ++i) portal->step();
  ASSERT_EQ(portal->stats().waiting, 2u);
  ASSERT_EQ(portal->status(lead.id)->state, RequestState::kRunning);

  // Cancelling a parked follower leaves the leader untouched.
  ASSERT_TRUE(portal->cancel(parked.id, "follower bailed").ok());
  EXPECT_EQ(portal->status(parked.id)->state, RequestState::kCancelled);
  EXPECT_EQ(portal->stats().waiting, 1u);
  EXPECT_EQ(portal->status(lead.id)->state, RequestState::kRunning);

  // Cancelling the RUNNING leader flags its token; at the next scheduling
  // unit it terminalizes and the longest-waiting follower inherits the
  // single-flight slot instead of losing its own derivation.
  ASSERT_TRUE(portal->cancel(lead.id, "leader abandoned").ok());
  portal->drain();
  EXPECT_EQ(portal->status(lead.id)->state, RequestState::kCancelled);
  const auto promoted = portal->status(follow.id);
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted->state, RequestState::kDone);
  EXPECT_GT(promoted->galaxies, 0u);
  ASSERT_NE(portal->result(follow.id), nullptr);
  EXPECT_EQ(portal->stats().cancelled, 2u);
  EXPECT_EQ(portal->stats().done, 1u);
  EXPECT_EQ(portal->stats().waiting, 0u);
  EXPECT_EQ(portal->stats().running, 0u);
}

/// The derived gauges must agree with what status() reports for every
/// request: queued + parked requests are kQueued, in-flight ones kRunning.
void expect_gauges_match_statuses(const AsyncPortal& portal,
                                  const std::vector<std::string>& ids) {
  std::size_t queued = 0;
  std::size_t running = 0;
  for (const std::string& id : ids) {
    const auto status = portal.status(id);
    ASSERT_TRUE(status.ok()) << id;
    if (status->state == RequestState::kQueued) ++queued;
    if (status->state == RequestState::kRunning) ++running;
  }
  const AsyncPortal::Stats stats = portal.stats();
  EXPECT_EQ(stats.queued + stats.waiting, queued);
  EXPECT_EQ(stats.running, running);
}

TEST(AsyncPortal, GaugesMatchRequestStatesThroughTheLifecycleMix) {
  analysis::Campaign campaign(small_campaign());
  AsyncPortalConfig config;
  config.memo_cache.byte_budget = 1;  // each memoized catalog evicts the last
  config.memo_cache.shards = 1;
  // Every unit is charged one full quantum, so the scheduler is strict round
  // robin and the interleavings below are fixed.
  config.drr.quantum_ms = 1e6;
  config.min_stage_charge_ms = 1e6;
  auto portal = make_portal(campaign, config);
  for (const char* t : {"alice", "bob", "carol", "dave"}) portal->add_tenant(t);

  std::vector<std::string> ids;
  const auto submit = [&](const char* tenant, std::size_t cluster,
                          double deadline_ms = 0.0) {
    const Submission s =
        portal->submit(tenant, cluster_name(campaign, cluster), "", deadline_ms);
    EXPECT_TRUE(s.admitted);
    ids.push_back(s.id);
    expect_gauges_match_statuses(*portal, ids);
    return s.id;
  };
  const auto cancel = [&](const std::string& id) {
    ASSERT_TRUE(portal->cancel(id).ok());
    expect_gauges_match_statuses(*portal, ids);
  };
  const auto step_until = [&](const auto& done) {
    for (int i = 0; i < 500 && !done() && portal->step(); ++i) {
      expect_gauges_match_statuses(*portal, ids);
    }
    ASSERT_TRUE(done());
  };
  const auto status = [&](const std::string& id) { return portal->status(id).value(); };

  // Single flight: alice leads cluster 0, bob and carol park behind her.
  // Dave queues three requests; the last has a budget it cannot meet.
  const std::string lead = submit("alice", 0);
  const std::string heir = submit("bob", 0);
  const std::string parked = submit("carol", 0);
  const std::string first = submit("dave", 1);
  const std::string dropped = submit("dave", 2);
  const std::string late = submit("dave", 3, 1.0);
  step_until([&] { return portal->stats().waiting == 2; });
  ASSERT_EQ(status(dropped).state, RequestState::kQueued);
  ASSERT_EQ(status(lead).state, RequestState::kRunning);
  cancel(dropped);  // queued in the tenant FIFO
  cancel(parked);   // parked behind the leader
  cancel(lead);     // running leader: bob is re-elected at the next unit
  step_until([&] { return portal->idle(); });
  EXPECT_EQ(status(lead).state, RequestState::kCancelled);
  EXPECT_EQ(status(heir).state, RequestState::kDone);
  EXPECT_EQ(status(parked).state, RequestState::kCancelled);
  EXPECT_EQ(status(first).state, RequestState::kDone);
  EXPECT_EQ(status(dropped).state, RequestState::kCancelled);
  EXPECT_EQ(status(late).state, RequestState::kExpired);
  EXPECT_NE(status(late).error.find("in queue"), std::string::npos);

  // Memo eviction between scheduling and serve. Alice and carol duplicate a
  // memoized derivation and are both scheduled onto the memo fast path.
  // Round robin then runs bob's merge, which memoizes his catalog and so
  // evicts theirs. Alice's serve unit finds the memo gone and leads a full
  // run; carol's finds alice in flight and parks behind her.
  submit("alice", 4);
  step_until([&] { return portal->idle(); });
  const std::string evictor = submit("bob", 5);
  step_until([&] { return status(evictor).stage == "merge"; });
  const std::string demoted = submit("alice", 4);
  const std::string parked_again = submit("carol", 4);
  step_until([&] { return status(parked_again).stage == "memo_serve"; });
  EXPECT_EQ(status(demoted).stage, "memo_serve");
  step_until([&] { return status(parked_again).coalesced; });
  EXPECT_EQ(status(evictor).state, RequestState::kDone);
  EXPECT_EQ(status(demoted).stage, "images");
  EXPECT_EQ(status(parked_again).state, RequestState::kQueued);
  step_until([&] { return portal->idle(); });
  EXPECT_EQ(status(demoted).state, RequestState::kDone);
  EXPECT_FALSE(status(demoted).memo_hit);
  EXPECT_EQ(status(parked_again).state, RequestState::kDone);
  EXPECT_TRUE(status(parked_again).memo_hit);
  EXPECT_GT(portal->stats().memo_evictions, 0u);

  const AsyncPortal::Stats stats = portal->stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(AsyncPortal, MemoizationCoalescesDuplicateDerivations) {
  analysis::Campaign campaign(small_campaign());
  auto portal = make_portal(campaign);
  for (const char* t : {"alice", "bob", "carol"}) portal->add_tenant(t);

  // Three tenants each ask twice for the SAME derivation.
  const std::string cluster = cluster_name(campaign, 0);
  std::vector<std::string> ids;
  for (int round = 0; round < 2; ++round) {
    for (const char* t : {"alice", "bob", "carol"}) {
      const Submission s = portal->submit(t, cluster);
      ASSERT_TRUE(s.admitted);
      ids.push_back(s.id);
    }
  }
  portal->drain();

  std::set<std::string> states;
  for (const std::string& id : ids) {
    const auto status = portal->status(id);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, RequestState::kDone) << id;
  }
  const auto stats = portal->stats();
  EXPECT_EQ(stats.done, 6u);
  // The memoization claim: one actual derivation for six requests.
  EXPECT_EQ(stats.recomputes, 1u);
  EXPECT_LT(stats.recomputes, stats.admitted);
  // The five duplicates were either parked behind the leader or served
  // straight from the memo; none re-ran the pipeline.
  EXPECT_EQ(stats.memo_hits + stats.compute_cache_hits, 5u);
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_GT(portal->memo_cache().stats().bytes, 0u);
}

TEST(AsyncPortal, MemoEvictionFallsBackToFullRun) {
  analysis::Campaign campaign(small_campaign());
  AsyncPortalConfig config;
  config.memo_cache.byte_budget = 1;  // every new entry evicts the previous
  config.memo_cache.shards = 1;
  auto portal = make_portal(campaign, config);
  portal->add_tenant("alice");

  const std::string first = cluster_name(campaign, 0);
  const std::string second = cluster_name(campaign, 1);
  const auto a = portal->submit("alice", first);
  portal->drain();
  const auto b = portal->submit("alice", second);  // evicts first's memo
  portal->drain();
  const auto c = portal->submit("alice", first);   // memo gone -> full run
  portal->drain();

  EXPECT_GT(portal->stats().memo_evictions, 0u);
  const auto again = portal->status(c.id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->state, RequestState::kDone);
  EXPECT_FALSE(again->memo_hit);
  EXPECT_EQ(portal->stats().memo_hits, 0u);
  // The RLS result cache still shields the compute stage.
  EXPECT_EQ(portal->stats().recomputes, 2u);
  (void)a;
  (void)b;
}

TEST(AsyncPortal, ChaosKillIsOneShotAndTenantScoped) {
  analysis::CampaignConfig config = small_campaign();
  config.chaos.kill_after_nodes(3);  // dies inside the first cluster's DAG
  analysis::Campaign campaign(config);
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");
  portal->add_tenant("bob");

  const Submission doomed = portal->submit("alice", cluster_name(campaign, 0));
  portal->drain();
  const auto dead = portal->status(doomed.id);
  ASSERT_TRUE(dead.ok());
  EXPECT_EQ(dead->state, RequestState::kFailed);
  EXPECT_NE(dead->error.find("chaos kill"), std::string::npos) << dead->error;
  EXPECT_TRUE(campaign.compute_service().kill_fired());

  // The kill is one-shot: a different tenant — even on the SAME cluster —
  // proceeds cleanly afterwards. The failure was never memoized.
  const Submission survivor = portal->submit("bob", cluster_name(campaign, 0));
  portal->drain();
  const auto alive = portal->status(survivor.id);
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive->state, RequestState::kDone);
  EXPECT_FALSE(alive->memo_hit);

  const auto bob = portal->tenant_stats("bob");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(bob->failed, 0u);
  const auto alice = portal->tenant_stats("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(alice->failed, 1u);
}

TEST(AsyncPortal, ArchiveOutageDegradesOnlyOverlappingRequests) {
  analysis::CampaignConfig config = small_campaign();
  // CNOC (CADC) is dark for the first simulated minute: requests running
  // inside the window degrade to a NED-only catalog; later ones must not.
  config.chaos.outage(services::Federation::kCadcHost, 0.0, 60'000.0);
  analysis::Campaign campaign(config);
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");
  portal->add_tenant("bob");

  const Submission inside = portal->submit("alice", cluster_name(campaign, 0));
  portal->drain();
  const auto partial = portal->status(inside.id);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->state, RequestState::kPartial);
  EXPECT_GT(partial->archives_degraded, 0u);
  EXPECT_GT(partial->galaxies, 0u);  // degraded, not empty

  // A partial outcome is never memoized, so bob — same cluster, after the
  // window — gets a clean full-federation run, not alice's degraded bytes.
  EXPECT_EQ(portal->memo_cache().stats().bytes, 0u);
  ASSERT_LT(portal->now_ms(), 60'000.0);
  campaign.fabric().advance_clock(120'000.0 - portal->now_ms());

  const Submission after = portal->submit("bob", cluster_name(campaign, 0));
  portal->drain();
  const auto clean = portal->status(after.id);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->state, RequestState::kDone);
  EXPECT_EQ(clean->archives_degraded, 0u);
  EXPECT_FALSE(clean->memo_hit);
  EXPECT_EQ(portal->stats().partial, 1u);
  EXPECT_EQ(portal->stats().done, 1u);
}

TEST(AsyncPortal, StatusServedOverTheFabric) {
  analysis::Campaign campaign(small_campaign());
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");
  const Submission sub = portal->submit("alice", cluster_name(campaign, 0));

  auto response = campaign.fabric().get(portal->status_url(sub.id));
  ASSERT_TRUE(response.ok());
  const std::string body = response->body_text();
  EXPECT_NE(body.find("state=queued"), std::string::npos) << body;
  EXPECT_NE(body.find("tenant=alice"), std::string::npos);

  portal->drain();
  response = campaign.fabric().get(portal->status_url(sub.id));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->body_text().find("state=done"), std::string::npos);

  EXPECT_FALSE(campaign.fabric().get(portal->status_url("preq-404")).ok());
  EXPECT_FALSE(
      campaign.fabric().get("http://portal.nvo.sim/status").ok());  // no id
}

// ---------------------------------------------------------------------------
// Open-loop load generation
// ---------------------------------------------------------------------------

LoadOutcome overload_run(double overload) {
  analysis::Campaign campaign(small_campaign());
  AsyncPortalConfig config;
  config.admission.per_tenant_queue_limit = 2;
  config.admission.global_queue_limit = 4;
  auto portal = make_portal(campaign, config);

  const std::vector<LoadTenantSpec> specs = {
      {"alice", 2.0, {cluster_name(campaign, 0), cluster_name(campaign, 1)}, 1.0},
      {"bob", 1.0, {cluster_name(campaign, 0), cluster_name(campaign, 2)}, 1.0},
  };
  LoadConfig load;
  load.mean_service_ms = 2000.0;
  load.overload = overload;
  load.requests_per_tenant = 6;
  load.seed = 7;
  return run_load(*portal, campaign.fabric(), specs, load);
}

TEST(LoadGen, DeepOverloadShedsButKeepsGoodput) {
  const LoadOutcome out = overload_run(5.0);
  EXPECT_EQ(out.submitted, 12u);
  EXPECT_GT(out.shed, 0u);          // bounded queues actually shed
  EXPECT_GT(out.done + out.partial, 0u);
  EXPECT_GT(out.goodput_per_s, 0.0);
  EXPECT_GT(out.shed_rate, 0.0);
  EXPECT_GT(out.latency.p50_ms, 0.0);
  EXPECT_GE(out.latency.p99_ms, out.latency.p50_ms);
  EXPECT_GE(out.latency.max_ms, out.latency.p99_ms);
  // Shared cluster lists => duplicate derivations => fewer recomputes than
  // completed requests.
  EXPECT_LT(out.portal.recomputes, out.done + out.partial);
  EXPECT_EQ(out.submitted, out.shed + out.done + out.partial + out.failed);
  // Per-tenant accounting adds up.
  std::size_t per_tenant = 0;
  for (const auto& [name, t] : out.tenants) per_tenant += t.submitted;
  EXPECT_EQ(per_tenant, out.submitted);
}

TEST(LoadGen, ScheduleIsDeterministicInTheSeed) {
  const LoadOutcome a = overload_run(5.0);
  const LoadOutcome b = overload_run(5.0);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_DOUBLE_EQ(a.latency.p99_ms, b.latency.p99_ms);
  EXPECT_DOUBLE_EQ(a.sim_elapsed_ms, b.sim_elapsed_ms);
}

TEST(LoadGen, MildLoadShedsLessThanOverload) {
  const LoadOutcome mild = overload_run(1.0);
  const LoadOutcome deep = overload_run(5.0);
  EXPECT_LE(mild.shed_rate, deep.shed_rate);
}

}  // namespace
}  // namespace nvo::portal
