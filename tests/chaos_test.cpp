// Chaos-harness tests: the full eight-cluster campaign driven through
// scripted fault windows. The resilience layer (retry/backoff, circuit
// breakers, mirror failover, graceful catalog degradation) must keep the
// science output intact — same galaxies, same clusters showing the
// density-morphology relation — while the report itemizes what degraded.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "obs/metrics.hpp"
#include "origin_digest_audit.hpp"
#include "services/chaos.hpp"
#include "services/federation.hpp"
#include "services/http.hpp"
#include "services/resilience.hpp"

namespace nvo::analysis {
namespace {

CampaignConfig base_config(double population_scale = 0.1) {
  CampaignConfig config;
  config.population_scale = population_scale;
  config.compute_threads = 2;
  return config;
}

std::size_t report_invalid(const CampaignReport& report) {
  std::size_t invalid = 0;
  for (const ClusterOutcome& c : report.clusters) invalid += c.invalid;
  return invalid;
}

/// Flaky windows on every federated archive host for the whole run.
services::ChaosSchedule all_archives_flaky(double rate) {
  services::ChaosSchedule chaos;
  for (const std::string& host : services::Federation::archive_hosts()) {
    chaos.flaky(host, rate);
  }
  return chaos;
}

TEST(Chaos, ZeroFaultRunIsUnchangedByTheResilienceLayer) {
  // With no faults the retry/breaker/mirror machinery must be invisible:
  // disabling the mirror (removing the failover layer entirely) produces a
  // bit-identical campaign report.
  CampaignConfig with_mirror = base_config();
  CampaignConfig without_mirror = base_config();
  without_mirror.enable_mirror = false;

  auto a = Campaign(with_mirror).run();
  auto b = Campaign(without_mirror).run();
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(a->to_text(), b->to_text());
  EXPECT_EQ(a->total_retries, 0u);
  EXPECT_EQ(a->total_breaker_trips, 0u);
  EXPECT_EQ(a->total_failovers, 0u);
  EXPECT_EQ(a->archives_degraded, 0u);
}

TEST(Chaos, TransientFaultSweepPreservesTheCampaign) {
  auto baseline = Campaign(base_config()).run();
  ASSERT_TRUE(baseline.ok());

  for (double rate : {0.05, 0.15, 0.25}) {
    CampaignConfig config = base_config();
    config.chaos = all_archives_flaky(rate);
    auto report = Campaign(config).run();
    ASSERT_TRUE(report.ok()) << "rate " << rate << ": "
                             << report.error().to_string();
    // No silent galaxy loss: every catalog row the fault-free run saw is
    // still reached, and nearly all of them are measured.
    EXPECT_EQ(report->total_galaxies, baseline->total_galaxies) << rate;
    EXPECT_EQ(report->clusters.size(), baseline->clusters.size());
    EXPECT_GE(report->total_galaxies - report_invalid(*report),
              static_cast<std::size_t>(0.95 * (baseline->total_galaxies -
                                               report_invalid(*baseline))))
        << rate;
    // The retry layer was actually exercised.
    EXPECT_GT(report->total_retries, 0u) << rate;
  }
}

TEST(Chaos, IdenticallySeededChaosCampaignsAreBitIdentical) {
  CampaignConfig config = base_config();
  config.chaos = all_archives_flaky(0.2);
  config.chaos.outage(services::Federation::kCadcHost, 0.0,
                      std::numeric_limits<double>::infinity());

  auto a = Campaign(config).run();
  auto b = Campaign(config).run();
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->to_text(), b->to_text());
  EXPECT_GT(a->total_retries, 0u);  // the runs were genuinely chaotic
}

TEST(Chaos, FullArchiveOutageDegradesGracefully) {
  // The acceptance scenario: 20% transient failures on every archive plus a
  // full CADC outage (the CNOC catalog and its SIA service are gone for the
  // entire run). The campaign must still complete all eight clusters with
  // the same galaxies and the same clusters showing the relation, and the
  // report must itemize the degradation.
  auto baseline = Campaign(base_config(0.15)).run();
  ASSERT_TRUE(baseline.ok());

  CampaignConfig config = base_config(0.15);
  config.chaos = all_archives_flaky(0.2);
  config.chaos.outage(services::Federation::kCadcHost, 0.0,
                      std::numeric_limits<double>::infinity());
  auto report = Campaign(config).run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  EXPECT_EQ(report->clusters.size(), 8u);
  EXPECT_EQ(report->total_galaxies, baseline->total_galaxies);
  // >= 95% of the reachable galaxies measured.
  const std::size_t valid = report->total_galaxies - report_invalid(*report);
  const std::size_t baseline_valid =
      baseline->total_galaxies - report_invalid(*baseline);
  EXPECT_GE(valid, static_cast<std::size_t>(0.95 * baseline_valid));

  // Same science: the relation appears in exactly the clusters it appeared
  // in without faults.
  ASSERT_EQ(report->clusters.size(), baseline->clusters.size());
  for (std::size_t i = 0; i < report->clusters.size(); ++i) {
    EXPECT_EQ(report->clusters[i].dressler.relation_detected(),
              baseline->clusters[i].dressler.relation_detected())
        << report->clusters[i].name;
  }

  // The degradation is visible, per archive, in the report.
  EXPECT_GT(report->archives_degraded, 0u);
  const std::string text = report->to_text();
  EXPECT_NE(text.find("degraded archive interactions"), std::string::npos);
  EXPECT_NE(text.find("CNOC"), std::string::npos);
  EXPECT_GT(report->total_retries, 0u);
}

// ---------------------------------------------------------------------------
// Regression tests for the metrics-coupled clock bug: now_ms() used to BE
// metrics_.total_elapsed_ms, so reset_metrics() rewound simulated time —
// un-tripping circuit breakers and replaying chaos fault windows that had
// already passed.
// ---------------------------------------------------------------------------

TEST(Chaos, MetricsResetDoesNotRewindTheSimulatedClock) {
  services::HttpFabric fabric(7);
  fabric.route("a.sim", "/x", [](const services::Url&) {
    return services::HttpResponse::text("ok");
  });
  ASSERT_TRUE(fabric.get("http://a.sim/x").ok());
  fabric.advance_clock(500.0);
  const double before = fabric.now_ms();
  EXPECT_GT(before, 500.0);
  EXPECT_GT(fabric.metrics().total_elapsed_ms, 0.0);

  fabric.reset_metrics();

  EXPECT_EQ(fabric.metrics().requests, 0u);
  EXPECT_EQ(fabric.metrics().total_elapsed_ms, 0.0);
  // The headline assertion: with the old coupled clock this was 0.0.
  EXPECT_EQ(fabric.now_ms(), before);
}

TEST(Chaos, BreakerStateAndOutageWindowPhaseSurviveAMetricsReset) {
  services::HttpFabric fabric(11);
  fabric.route("down.sim", "/q", [](const services::Url&) {
    return services::HttpResponse::text("ok");
  });
  // Hard outage covering the start of simulated time only.
  const double outage_end_ms = 2000.0;
  services::ChaosSchedule chaos;
  chaos.outage("down.sim", 0.0, outage_end_ms);
  services::install_chaos(fabric, chaos);

  services::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_backoff_ms = 10.0;
  services::BreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown_ms = 500.0;
  services::ResilientClient client(fabric, retry, breaker, "chaos-test");

  // Trip the breaker inside the outage window.
  EXPECT_FALSE(client.get("http://down.sim/q").ok());
  ASSERT_EQ(client.breaker_state("down.sim"), services::BreakerState::kOpen);

  // Move simulated time past both the outage window and the cool-down, then
  // zero the counters mid-campaign (exactly what Campaign::run() does).
  fabric.advance_clock(outage_end_ms + breaker.cooldown_ms);
  fabric.reset_metrics();
  EXPECT_GT(fabric.now_ms(), outage_end_ms);

  // With the old metrics-coupled clock the reset rewound now_ms() to 0: the
  // breaker's cool-down never elapsed and the outage window replayed. With
  // the monotonic clock the host is healthy, the breaker half-opens, and
  // the probe succeeds (half-open -> closed).
  auto response = client.get("http://down.sim/q");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(client.breaker_state("down.sim"), services::BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Data-integrity chaos: corruption fault windows (bit flips, truncation,
// stale-replica replays) on the cutout archive. The digest layer must catch
// every tampered payload before the morphology kernel sees it, and the final
// catalogs must be byte-identical to the fault-free run.
// ---------------------------------------------------------------------------

services::ChaosSchedule corruption_on_mast(const std::string& kind,
                                           double rate) {
  // kMastHost is the one mirrored archive, so even a 100% corruption rate
  // must recover (quarantine the primary, re-fetch from the mirror).
  services::ChaosSchedule chaos;
  if (kind == "bit_flip") {
    chaos.bit_flip(services::Federation::kMastHost, rate);
  } else if (kind == "truncate") {
    chaos.truncate(services::Federation::kMastHost, rate);
  } else {
    chaos.stale_replica(services::Federation::kMastHost, rate);
  }
  return chaos;
}

TEST(Chaos, CorruptionSweepNeverLeaksBadBytesIntoTheCatalog) {
  auto baseline = Campaign(base_config(0.05)).run();
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();

  for (const std::string kind : {"bit_flip", "truncate", "stale_replica"}) {
    for (double rate : {0.25, 1.0}) {
      CampaignConfig config = base_config(0.05);
      config.chaos = corruption_on_mast(kind, rate);
      Campaign campaign(config);
      obs::MetricsRegistry registry;
      campaign.register_metrics(registry);
      auto report = campaign.run();
      ASSERT_TRUE(report.ok())
          << kind << " @" << rate << ": " << report.error().to_string();

      // Byte-identical science: every cluster catalog matches the fault-free
      // serve, byte for byte.
      ASSERT_EQ(report->clusters.size(), baseline->clusters.size());
      for (std::size_t i = 0; i < report->clusters.size(); ++i) {
        EXPECT_EQ(report->clusters[i].catalog_xml,
                  baseline->clusters[i].catalog_xml)
            << kind << " @" << rate << ": " << report->clusters[i].name;
      }

      // The fault windows really fired, and every injected corruption was
      // caught by a digest check in some resilient client — zero undetected.
      const obs::MetricsSnapshot snap = registry.snapshot();
      const double injected = snap.counter("fabric.corruptions_injected");
      const double detected = snap.counter("client.portal.integrity_failures") +
                              snap.counter("client.compute.integrity_failures");
      EXPECT_GT(injected, 0.0) << kind << " @" << rate;
      EXPECT_EQ(detected, injected) << kind << " @" << rate;

      // Nothing corrupt was ever offered to (or rotted inside) the replica
      // cache, so no tampered bytes could have reached the kernel.
      EXPECT_EQ(snap.counter("cache.replica.integrity_rejects"), 0.0)
          << kind << " @" << rate;
      EXPECT_EQ(snap.counter("cache.replica.integrity_mismatches"), 0.0)
          << kind << " @" << rate;
    }
  }
}

TEST(Chaos, TamperingActsOnOriginSignedPayloads) {
  // Cutouts and catalogs are signed with the digest their origin recorded
  // when it stored them. Every such digest matches its body when it leaves
  // the origin (the audit runs before the tamperer), and a flipped bit in
  // an origin-signed cutout is still caught by the client's digest check.
  const std::uint64_t checked_before = OriginDigestAudit::checked();
  CampaignConfig config = base_config(0.05);
  config.chaos = corruption_on_mast("bit_flip", 0.5);
  Campaign campaign(config);
  obs::MetricsRegistry registry;
  campaign.register_metrics(registry);
  auto report = campaign.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  const auto cutouts =
      campaign.fabric().metrics_for(services::Federation::kMastHost, "/cutout/image");
  ASSERT_TRUE(cutouts.has_value());
  EXPECT_GE(OriginDigestAudit::checked() - checked_before, cutouts->requests);
  EXPECT_EQ(OriginDigestAudit::mismatched(), 0u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const double injected = snap.counter("fabric.corruptions_injected");
  EXPECT_GT(injected, 0.0);
  EXPECT_EQ(snap.counter("client.portal.integrity_failures") +
                snap.counter("client.compute.integrity_failures"),
            injected);
}

TEST(Chaos, PersistentCorruptionQuarantinesThePrimaryArchive) {
  // At 100% bit-flip rate the primary can never serve a clean payload: the
  // client must quarantine it and route later fetches straight to the
  // mirror instead of burning the retry budget on known-bad endpoints.
  CampaignConfig config = base_config(0.05);
  config.chaos = corruption_on_mast("bit_flip", 1.0);
  Campaign campaign(config);
  obs::MetricsRegistry registry;
  campaign.register_metrics(registry);
  auto report = campaign.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(report->total_integrity_failures, 0u);
  EXPECT_GT(report->total_quarantine_skips, 0u);
  EXPECT_GT(report->total_failovers, 0u);
  EXPECT_GT(snap.counter("client.compute.quarantines"), 0.0);
  const std::string text = report->to_text();
  EXPECT_NE(text.find("corruptions caught"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Durable checkpoint/resume: a campaign killed mid-run (chaos kill after N
// DAG node completions) restarted on the same journal must re-execute only
// the unfinished work and converge to byte-identical catalogs.
// ---------------------------------------------------------------------------

TEST(Chaos, KilledCampaignResumesToAnIdenticalCatalog) {
  const std::string journal_path =
      testing::TempDir() + "nvo_chaos_resume.journal";
  std::remove(journal_path.c_str());

  // The fault-free, journal-free reference catalogs.
  auto reference = Campaign(base_config(0.05)).run();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();

  // Campaign A: journaled, killed after 40 DAG node completions (mid-run).
  {
    CampaignConfig config = base_config(0.05);
    config.journal_path = journal_path;
    config.chaos.kill_after_nodes(40);
    Campaign campaign(config);
    ASSERT_NE(campaign.journal(), nullptr);
    auto report = campaign.run();
    ASSERT_FALSE(report.ok()) << "the chaos kill must abort the campaign";
    EXPECT_NE(report.error().to_string().find("chaos kill"), std::string::npos)
        << report.error().to_string();
  }

  // Campaign B: same configuration minus the kill, same journal. It must
  // recover the finished clusters whole, replay the journaled rows/nodes of
  // the killed cluster, and finish the rest — byte-identical to reference.
  CampaignConfig resume_config = base_config(0.05);
  resume_config.journal_path = journal_path;
  Campaign resumed(resume_config);
  ASSERT_NE(resumed.journal(), nullptr);
  EXPECT_GT(resumed.journal()->stats().records_loaded, 0u);
  auto report = resumed.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  ASSERT_EQ(report->clusters.size(), reference->clusters.size());
  for (std::size_t i = 0; i < report->clusters.size(); ++i) {
    EXPECT_EQ(report->clusters[i].name, reference->clusters[i].name);
    EXPECT_EQ(report->clusters[i].catalog_xml,
              reference->clusters[i].catalog_xml)
        << report->clusters[i].name;
  }
  // Work was genuinely skipped, not redone: the killed cluster resumed its
  // journaled DAG nodes and morphology rows.
  EXPECT_GT(report->total_nodes_resumed, 0u);
  EXPECT_GT(report->total_rows_resumed, 0u);
  bool saw_partial_resume = false;
  for (const ClusterOutcome& c : report->clusters) {
    if (c.nodes_resumed > 0 && !c.resumed_from_journal) {
      saw_partial_resume = true;
      // Staging finished before the kill landed in the DAG phase, so every
      // row of the killed cluster came back from the journal.
      EXPECT_EQ(c.rows_resumed, c.galaxies) << c.name;
    }
  }
  EXPECT_TRUE(saw_partial_resume);
  const std::string text = report->to_text();
  EXPECT_NE(text.find("resumed from journal"), std::string::npos);

  // Campaign C: a third run on the now-complete journal serves every
  // cluster catalog whole, still byte-identical.
  Campaign third(resume_config);
  auto report_c = third.run();
  ASSERT_TRUE(report_c.ok()) << report_c.error().to_string();
  EXPECT_EQ(report_c->clusters_resumed, report_c->clusters.size());
  for (std::size_t i = 0; i < report_c->clusters.size(); ++i) {
    EXPECT_EQ(report_c->clusters[i].catalog_xml,
              reference->clusters[i].catalog_xml);
  }
  std::remove(journal_path.c_str());
}

TEST(Chaos, ResumeUnderCorruptionStillConvergesByteIdentical) {
  // The combined scenario from the acceptance checklist: corruption windows
  // AND a mid-campaign kill. The resumed run (faults still active) must
  // still produce the fault-free catalogs.
  const std::string journal_path =
      testing::TempDir() + "nvo_chaos_resume_corrupt.journal";
  std::remove(journal_path.c_str());

  auto reference = Campaign(base_config(0.05)).run();
  ASSERT_TRUE(reference.ok());

  {
    CampaignConfig config = base_config(0.05);
    config.journal_path = journal_path;
    config.chaos = corruption_on_mast("bit_flip", 0.3);
    config.chaos.kill_after_nodes(25);
    auto report = Campaign(config).run();
    ASSERT_FALSE(report.ok());
  }

  CampaignConfig resume_config = base_config(0.05);
  resume_config.journal_path = journal_path;
  resume_config.chaos = corruption_on_mast("bit_flip", 0.3);
  auto report = Campaign(resume_config).run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  ASSERT_EQ(report->clusters.size(), reference->clusters.size());
  for (std::size_t i = 0; i < report->clusters.size(); ++i) {
    EXPECT_EQ(report->clusters[i].catalog_xml,
              reference->clusters[i].catalog_xml)
        << report->clusters[i].name;
  }
  EXPECT_GT(report->total_nodes_resumed, 0u);
  std::remove(journal_path.c_str());
}

TEST(Chaos, SimulatedClockIsMonotonicAcrossConsecutiveCampaignRuns) {
  CampaignConfig config = base_config(0.05);
  config.chaos = all_archives_flaky(0.15);
  Campaign campaign(config);
  EXPECT_EQ(campaign.fabric().now_ms(), 0.0);

  auto first = campaign.run();
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const double after_first = campaign.fabric().now_ms();
  EXPECT_GT(after_first, 0.0);

  // run() resets the counters at entry; time must keep flowing forward.
  auto second = campaign.run();
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_GT(campaign.fabric().now_ms(), after_first);
  EXPECT_EQ(first->total_galaxies, second->total_galaxies);
}

}  // namespace
}  // namespace nvo::analysis
