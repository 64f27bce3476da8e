// Tests for the per-request resilience layer (retry/backoff, circuit
// breakers, mirror failover) and the deterministic chaos harness. All
// timing is the fabric's simulated clock, so every expectation here is
// exact and reproducible.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "services/chaos.hpp"
#include "services/http.hpp"
#include "services/lifecycle.hpp"
#include "services/resilience.hpp"

namespace nvo::services {
namespace {

Handler ok_handler(const std::string& body = "ok") {
  return [body](const Url&) { return HttpResponse::text(body); };
}

Handler error_500_handler() {
  return [](const Url&) {
    HttpResponse r = HttpResponse::text("boom");
    r.status = 503;
    return r;
  };
}

Handler not_found_handler() {
  return [](const Url&) -> Expected<HttpResponse> {
    return Error(ErrorCode::kNotFound, "no such galaxy");
  };
}

// ---------------------------------------------------------------------------
// CircuitBreaker unit behaviour
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndCoolsDown) {
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.cooldown_ms = 1000.0;
  CircuitBreaker breaker(policy);

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure(0.0);
  breaker.record_failure(1.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow(2.0));
  breaker.record_failure(2.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);

  // Open: requests rejected until the cool-down expires.
  EXPECT_FALSE(breaker.allow(500.0));
  EXPECT_TRUE(breaker.allow(1002.0));  // -> half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // Half-open failure re-trips immediately (single strike).
  breaker.record_failure(1002.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);

  // Second probe succeeds: breaker closes and the failure count resets.
  EXPECT_TRUE(breaker.allow(2003.0));
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure(2004.0);
  breaker.record_failure(2005.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // threshold is 3 again
}

TEST(CircuitBreaker, SuccessResetsConsecutiveCount) {
  BreakerPolicy policy;
  policy.failure_threshold = 2;
  CircuitBreaker breaker(policy);
  breaker.record_failure(0.0);
  breaker.record_success();
  breaker.record_failure(1.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure(2.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

// ---------------------------------------------------------------------------
// Retry / backoff
// ---------------------------------------------------------------------------

TEST(ResilientClient, RetriesThroughTransientFailures) {
  HttpFabric fabric(11);
  fabric.route("flaky.sim", "/data", ok_handler(),
               EndpointModel{10.0, 8.0, 0.6, true});

  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.deadline_ms = 0.0;  // no deadline
  BreakerPolicy breaker;
  breaker.failure_threshold = 100;  // keep the breaker out of this test
  ResilientClient client(fabric, retry, breaker);

  for (int i = 0; i < 20; ++i) {
    auto r = client.get("http://flaky.sim/data");
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(r->body_text(), "ok");
  }
  const EndpointStats* stats = client.stats_for("flaky.sim");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->successes, 20u);
  EXPECT_GT(stats->retries, 0u);  // 60% failure rate must have forced retries
  EXPECT_GT(stats->backoff_wait_ms, 0.0);
}

TEST(ResilientClient, BackoffAdvancesSimulatedClockDeterministically) {
  const auto run_once = [] {
    HttpFabric fabric(99);
    fabric.route("down.sim", "/x", ok_handler(),
                 EndpointModel{10.0, 8.0, 0.0, false});
    RetryPolicy retry;
    retry.max_attempts = 3;
    retry.base_backoff_ms = 100.0;
    retry.deadline_ms = 0.0;
    BreakerPolicy breaker;
    breaker.failure_threshold = 100;
    ResilientClient client(fabric, retry, breaker);
    auto r = client.get("http://down.sim/x");
    EXPECT_FALSE(r.ok());
    return fabric.metrics().total_elapsed_ms;
  };
  const double first = run_once();
  const double second = run_once();
  EXPECT_DOUBLE_EQ(first, second);  // seeded jitter: bit-identical reruns
  // 3 attempts x 10ms latency + 2 backoffs (~100, ~200 ms with ±12.5% jitter).
  EXPECT_GT(first, 30.0 + 0.875 * 300.0);
  EXPECT_LT(first, 30.0 + 1.125 * 300.0);
}

TEST(ResilientClient, DeadlineBoundsTotalSimulatedTime) {
  HttpFabric fabric(7);
  fabric.route("down.sim", "/x", ok_handler(), EndpointModel{50.0, 8.0, 0.0, false});
  RetryPolicy retry;
  retry.max_attempts = 100;
  retry.base_backoff_ms = 200.0;
  retry.deadline_ms = 1500.0;
  BreakerPolicy breaker;
  breaker.failure_threshold = 1000;
  ResilientClient client(fabric, retry, breaker);

  auto r = client.get("http://down.sim/x");
  EXPECT_FALSE(r.ok());
  // The retry loop must give up within (about) the deadline, not run all
  // 100 attempts: the last backoff is refused when it would pass the limit.
  EXPECT_LE(fabric.metrics().total_elapsed_ms, 1500.0 + 50.0);
  const EndpointStats* stats = client.stats_for("down.sim");
  ASSERT_NE(stats, nullptr);
  EXPECT_LT(stats->attempts, 100u);
}

TEST(ResilientClient, RequestBudgetClampsBackoffToDeadline) {
  HttpFabric fabric(7);
  fabric.route("down.sim", "/x", ok_handler(),
               EndpointModel{50.0, 8.0, 0.0, false});
  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.base_backoff_ms = 1000.0;  // would sleep far past the budget
  retry.deadline_ms = 0.0;         // the policy itself is unbounded
  BreakerPolicy breaker;
  breaker.failure_threshold = 1000;
  ResilientClient client(fabric, retry, breaker);

  {
    RequestContext ctx;
    ctx.budget = DeadlineBudget::after(fabric.now_ms(), 150.0);
    ResilientClient::ScopedContext scoped(client, ctx);
    auto r = client.get("http://down.sim/x");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kTimeout);
    // The expiring budget fails fast: the 1000 ms backoff is clamped to the
    // remaining allowance, so the failure lands exactly AT the deadline —
    // never a full jittered backoff later.
    EXPECT_DOUBLE_EQ(fabric.metrics().total_elapsed_ms, 150.0);
    const EndpointStats* stats = client.stats_for("down.sim");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->attempts, 1u);  // no second attempt inside 150 ms
    EXPECT_DOUBLE_EQ(stats->backoff_wait_ms, 100.0);  // 150 - 50 ms latency
  }

  // Outside the scope the client is unbounded again: the same fetch now
  // burns real backoff instead of failing at a stale deadline.
  auto r2 = client.get("http://down.sim/x");
  ASSERT_FALSE(r2.ok());
  EXPECT_GT(fabric.metrics().total_elapsed_ms, 150.0 + 50.0);
}

TEST(ResilientClient, CancelledContextFailsFastWithoutTraffic) {
  HttpFabric fabric(7);
  fabric.route("up.sim", "/x", ok_handler());
  ResilientClient client(fabric);

  RequestContext ctx;
  ctx.cancel.cancel("client abandoned request");
  ResilientClient::ScopedContext scoped(client, ctx);
  const double before_ms = fabric.metrics().total_elapsed_ms;
  auto r = client.get("http://up.sim/x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kCancelled);
  // No attempt, no retries, no simulated time: the cancelled request never
  // reaches the fabric.
  EXPECT_DOUBLE_EQ(fabric.metrics().total_elapsed_ms, before_ms);
  EXPECT_EQ(client.stats_for("up.sim"), nullptr);
}

TEST(ResilientClient, NonRetryableErrorReturnsImmediately) {
  HttpFabric fabric(5);
  fabric.route("mast.sim", "/cutout", not_found_handler());
  ResilientClient client(fabric);
  client.add_mirror("mast.sim", "mirror.sim");  // must NOT be consulted
  fabric.route("mirror.sim", "/cutout", ok_handler());

  auto r = client.get("http://mast.sim/cutout?POS=1,2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  const EndpointStats* stats = client.stats_for("mast.sim");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->attempts, 1u);  // no retry on a 404-class miss
  EXPECT_EQ(stats->failovers, 0u);
  EXPECT_EQ(client.stats_for("mirror.sim"), nullptr);
}

TEST(ResilientClient, ServerErrorStatusIsRetried) {
  HttpFabric fabric(5);
  fabric.route("err.sim", "/x", error_500_handler());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff_ms = 10.0;
  ResilientClient client(fabric, retry);
  auto r = client.get("http://err.sim/x");
  EXPECT_FALSE(r.ok());
  const EndpointStats* stats = client.stats_for("err.sim");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->attempts, 3u);
}

// ---------------------------------------------------------------------------
// Breaker integration: short-circuiting and recovery
// ---------------------------------------------------------------------------

TEST(ResilientClient, BreakerShortCircuitsAndRecovers) {
  HttpFabric fabric(13);
  fabric.route("archive.sim", "/sia", ok_handler(),
               EndpointModel{10.0, 8.0, 0.0, false});
  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.base_backoff_ms = 10.0;
  retry.deadline_ms = 0.0;
  BreakerPolicy breaker;
  breaker.failure_threshold = 3;
  breaker.cooldown_ms = 5000.0;
  ResilientClient client(fabric, retry, breaker);

  // First call: 3 failures trip the breaker; the retry loop stops early.
  auto r1 = client.get("http://archive.sim/sia");
  EXPECT_FALSE(r1.ok());
  const EndpointStats* stats = client.stats_for("archive.sim");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->attempts, 3u);
  EXPECT_EQ(stats->breaker_trips, 1u);
  EXPECT_EQ(client.breaker_state("archive.sim"), BreakerState::kOpen);

  // While open: requests are rejected without touching the fabric.
  const std::uint64_t fabric_requests = fabric.metrics().requests;
  auto r2 = client.get("http://archive.sim/sia");
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(fabric.metrics().requests, fabric_requests);
  EXPECT_GE(stats->short_circuits, 1u);

  // Archive comes back; after the cool-down the half-open probe succeeds.
  ASSERT_TRUE(fabric.set_up("archive.sim", "/sia", true).ok());
  fabric.advance_clock(6000.0);
  auto r3 = client.get("http://archive.sim/sia");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(client.breaker_state("archive.sim"), BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Mirror failover
// ---------------------------------------------------------------------------

TEST(ResilientClient, FailsOverToMirrorWhenPrimaryIsDown) {
  HttpFabric fabric(21);
  fabric.route("primary.sim", "/dss/image", ok_handler("primary"),
               EndpointModel{10.0, 8.0, 0.0, false});
  fabric.route("mirror.sim", "/dss/image", ok_handler("mirror"),
               EndpointModel{20.0, 8.0, 0.0, true});
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_backoff_ms = 10.0;
  ResilientClient client(fabric, retry);
  client.add_mirror("primary.sim", "mirror.sim");

  auto r = client.get("http://primary.sim/dss/image?CLUSTER=abell");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->body_text(), "mirror");
  const EndpointStats* primary = client.stats_for("primary.sim");
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(primary->failovers, 1u);
  const EndpointStats* mirror = client.stats_for("mirror.sim");
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(mirror->successes, 1u);
}

// ---------------------------------------------------------------------------
// Zero-fault transparency: wrapping a fabric changes nothing
// ---------------------------------------------------------------------------

TEST(ResilientClient, ZeroFaultRunIsBitIdenticalToRawFabric) {
  const auto build = [](HttpFabric& fabric) {
    fabric.route("a.sim", "/x", ok_handler(std::string(5000, 'a')),
                 EndpointModel{25.0, 4.0, 0.0, true});
    fabric.route("b.sim", "/y", ok_handler(std::string(900, 'b')),
                 EndpointModel{60.0, 16.0, 0.0, true});
  };
  HttpFabric raw(12345);
  build(raw);
  HttpFabric wrapped_fabric(12345);
  build(wrapped_fabric);
  ResilientClient client(wrapped_fabric);

  for (int i = 0; i < 10; ++i) {
    auto a = raw.get("http://a.sim/x");
    auto b = client.get("http://a.sim/x");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->body_text(), b->body_text());
    EXPECT_DOUBLE_EQ(a->elapsed_ms, b->elapsed_ms);
    auto c = raw.get("http://b.sim/y");
    auto d = client.get("http://b.sim/y");
    ASSERT_TRUE(c.ok() && d.ok());
    EXPECT_DOUBLE_EQ(c->elapsed_ms, d->elapsed_ms);
  }
  EXPECT_DOUBLE_EQ(raw.metrics().total_elapsed_ms,
                   wrapped_fabric.metrics().total_elapsed_ms);
  EXPECT_EQ(raw.metrics().bytes_transferred,
            wrapped_fabric.metrics().bytes_transferred);
}

// The client parses a URL once and hands the fabric the parsed Url and its
// canonical string; the fabric's text entry point parses and canonicalizes
// itself. Both must dispatch identically: same routing, fault and tamper
// draws, signatures and clock charges, bit for bit.
TEST(ResilientClient, ParsedUrlEntryPointMatchesTheTextEntryPoint) {
  const auto build = [](HttpFabric& fabric) {
    fabric.route("a.sim", "/echo",
                 [](const Url& url) {
                   return HttpResponse::text("echo " + url.to_string());
                 },
                 EndpointModel{25.0, 4.0, 0.0, true});
    fabric.route("b.sim", "/flaky", ok_handler(std::string(700, 'b')),
                 EndpointModel{40.0, 8.0, 0.35, true});
    fabric.route("c.sim", "/stored",
                 [](const Url& url) {
                   HttpResponse r = HttpResponse::text(
                       std::string(3000, 'c') + url.param("id").value_or("?"));
                   r.origin_digest = integrity::content_digest(r.body);
                   return r;
                 },
                 EndpointModel{10.0, 50.0, 0.0, true});
    install_chaos(fabric, ChaosSchedule()
                              .bit_flip("a.sim", 0.3)
                              .truncate("b.sim", 0.2)
                              .stale_replica("c.sim", 0.3));
  };
  HttpFabric by_text(2718);
  build(by_text);
  HttpFabric by_client(2718);
  build(by_client);
  // One attempt, no verification and a breaker that never trips: the client
  // returns exactly what its single fabric call returned.
  RetryPolicy once;
  once.max_attempts = 1;
  once.verify_digests = false;
  once.deadline_ms = 0.0;
  BreakerPolicy never_trip;
  never_trip.failure_threshold = 1 << 30;
  ResilientClient client(by_client, once, never_trip);

  const std::vector<std::string> urls = {
      "http://a.sim/echo?b=2&a=1",
      "http://a.sim/echo?x%3Dy=2&a%2Bb=1&sp=a+b&pct=50%25",
      "http://a.sim/echo/deeper?POS=137.3,10.97&SIZE=0.1",
      "http://b.sim/flaky?i=1",
      "http://c.sim/stored?id=7",
      "http://c.sim/stored?id=8&&flag",
      "http://nowhere.sim/x",
  };
  for (int round = 0; round < 12; ++round) {
    for (const std::string& text : urls) {
      const auto want = by_text.get(text);
      const auto got = client.get(text);
      ASSERT_EQ(want.ok(), got.ok()) << text;
      if (!want.ok()) {
        EXPECT_EQ(want.error().code, got.error().code) << text;
        EXPECT_EQ(want.error().message, got.error().message) << text;
        continue;
      }
      EXPECT_EQ(want->body, got->body) << text;
      EXPECT_EQ(want->content_type, got->content_type) << text;
      EXPECT_EQ(want->digest, got->digest) << text;
      EXPECT_EQ(want->elapsed_ms, got->elapsed_ms) << text;
    }
  }
  const HttpFabric::Metrics a = by_text.metrics();
  const HttpFabric::Metrics b = by_client.metrics();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.unrouted, b.unrouted);
  EXPECT_EQ(a.transient_failures, b.transient_failures);
  EXPECT_GT(a.transient_failures, 0u);
  EXPECT_EQ(a.corruptions_injected, b.corruptions_injected);
  EXPECT_GT(a.corruptions_injected, 0u);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.total_elapsed_ms, b.total_elapsed_ms);
  EXPECT_EQ(by_text.now_ms(), by_client.now_ms());
}

// ---------------------------------------------------------------------------
// Chaos schedule: scripted fault windows on the simulated clock
// ---------------------------------------------------------------------------

TEST(Chaos, OutageWindowAppliesOnlyWithinItsInterval) {
  HttpFabric fabric(3);
  fabric.route("cadc.sim", "/cnoc/cone", ok_handler(),
               EndpointModel{10.0, 8.0, 0.0, true});
  ChaosSchedule schedule;
  schedule.outage("cadc.sim", 1000.0, 2000.0);
  install_chaos(fabric, schedule);

  // Before the window (clock starts at 0): healthy.
  EXPECT_TRUE(fabric.get("http://cadc.sim/cnoc/cone?RA=1&DEC=2&SR=0.1").ok());
  // Inside [1000, 2000): hard down.
  fabric.advance_clock(1500.0 - fabric.now_ms());
  auto mid = fabric.get("http://cadc.sim/cnoc/cone?RA=1&DEC=2&SR=0.1");
  ASSERT_FALSE(mid.ok());
  EXPECT_EQ(mid.error().code, ErrorCode::kServiceUnavailable);
  EXPECT_EQ(fabric.metrics().hard_down, 1u);
  // Past the end: healthy again.
  fabric.advance_clock(2000.0 - fabric.now_ms());
  EXPECT_TRUE(fabric.get("http://cadc.sim/cnoc/cone?RA=1&DEC=2&SR=0.1").ok());
}

TEST(Chaos, FlakyWindowRaisesFailureRate) {
  HttpFabric fabric(17);
  fabric.route("flaky.sim", "/x", ok_handler(), EndpointModel{5.0, 8.0, 0.0, true});
  ChaosSchedule schedule;
  schedule.flaky("flaky.sim", 0.5);
  install_chaos(fabric, schedule);

  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!fabric.get("http://flaky.sim/x").ok()) ++failures;
  }
  EXPECT_GT(failures, 60);   // ~100 expected at 50%
  EXPECT_LT(failures, 140);
  EXPECT_EQ(fabric.metrics().transient_failures, static_cast<std::uint64_t>(failures));
}

TEST(Chaos, BrownoutSlowsTransfersAndTriggersAttemptTimeout) {
  HttpFabric fabric(29);
  // 100 KB body at 8 Mbps ~ 100 ms transfer. Brownout to 1% bandwidth with
  // +500ms latency pushes an attempt over a 2s client-side budget.
  fabric.route("slow.sim", "/big", ok_handler(std::string(100000, 'x')),
               EndpointModel{10.0, 8.0, 0.0, true});
  ChaosSchedule schedule;
  schedule.brownout("slow.sim", 0.01, 500.0, 0.0,
                    std::numeric_limits<double>::infinity());
  install_chaos(fabric, schedule);

  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_backoff_ms = 10.0;
  retry.attempt_timeout_ms = 2000.0;
  retry.deadline_ms = 0.0;
  ResilientClient client(fabric, retry);
  auto r = client.get("http://slow.sim/big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kTimeout);
  const EndpointStats* stats = client.stats_for("slow.sim");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->attempts, 2u);
}

TEST(Chaos, PathPrefixScopesAWindow) {
  HttpFabric fabric(31);
  fabric.route("mast.sim", "/cutout/image", ok_handler());
  fabric.route("mast.sim", "/dss/sia", ok_handler());
  ChaosSchedule schedule;
  FaultWindow w;
  w.kind = FaultWindow::Kind::kOutage;
  w.host = "mast.sim";
  w.path_prefix = "/cutout";
  schedule.add(w);
  install_chaos(fabric, schedule);

  EXPECT_FALSE(fabric.get("http://mast.sim/cutout/image?POS=1,2&SIZE=0.01").ok());
  EXPECT_TRUE(fabric.get("http://mast.sim/dss/sia?POS=1,2&SIZE=0.2").ok());
}

}  // namespace
}  // namespace nvo::services
