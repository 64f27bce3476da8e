// Tests for the end-to-end data-integrity layer: URL-bound content
// digests, corruption detection in the resilient client, the endpoint
// quarantine list, replica-cache admission/read verification, and RLS
// digest propagation. Corruption is injected deterministically (scripted
// tamperers or chaos windows on the simulated clock), so every expectation
// is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "image/fits.hpp"
#include "origin_digest_audit.hpp"
#include "pegasus/rls.hpp"
#include "services/chaos.hpp"
#include "services/http.hpp"
#include "services/integrity.hpp"
#include "services/replica_cache.hpp"
#include "services/resilience.hpp"
#include "sim/universe.hpp"

namespace nvo::services {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

Handler ok_handler(const std::string& body = "clean payload") {
  return [body](const Url&) { return HttpResponse::text(body); };
}

// ---------------------------------------------------------------------------
// Digest primitives
// ---------------------------------------------------------------------------

TEST(Integrity, ContentDigestIsDeterministicAndSensitive) {
  const auto a = bytes_of("galaxy image bytes");
  EXPECT_EQ(integrity::content_digest(a), integrity::content_digest(a));
  auto b = a;
  b[4] ^= 0x01;
  EXPECT_NE(integrity::content_digest(a), integrity::content_digest(b));
  auto truncated = a;
  truncated.pop_back();
  EXPECT_NE(integrity::content_digest(a), integrity::content_digest(truncated));
}

// A real 64 px cutout as the archive serves it: 20160 bytes of FITS.
std::vector<std::uint8_t> cutout_payload() {
  const auto u = sim::Universe::make_paper_campaign(20031115, 0.02);
  const sim::Cluster& c = u.clusters().front();
  return image::write_fits(u.galaxy_cutout(c, c.galaxies.front(), 64));
}

TEST(Integrity, EverySingleBitFlipChangesTheDigest) {
  // Exhaustive: each flip is confined to one lane (or the byte tail), and
  // every digest step is a bijection of its state, so none can collide.
  auto bytes = cutout_payload();
  ASSERT_EQ(bytes.size(), 20160u);
  const std::uint64_t clean = integrity::content_digest(bytes);
  std::size_t undetected = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
      if (integrity::content_digest(bytes) == clean) ++undetected;
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(undetected, 0u);
}

TEST(Integrity, EveryTruncationChangesTheDigest) {
  const auto bytes = cutout_payload();
  std::set<std::uint64_t> seen{integrity::content_digest(bytes)};
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    // Distinct from the full payload and from every other prefix.
    EXPECT_TRUE(seen.insert(integrity::content_digest(bytes.data(), len)).second)
        << "prefix of " << len << " bytes";
  }
}

TEST(Integrity, SwappingWordsBetweenLanesChangesTheDigest) {
  // Word k of each 32-byte block feeds lane k; moving a word to another
  // lane must not cancel out in the lane fold. Each swap is checked in the
  // whole payload and in the prefix that ends with the swapped block, where
  // no later word can separate the two lanes before the fold.
  auto bytes = cutout_payload();
  const std::uint64_t clean = integrity::content_digest(bytes);
  std::size_t swaps = 0;
  for (std::size_t block = 0; block + 32 <= bytes.size(); block += 32) {
    const std::uint64_t clean_prefix = integrity::content_digest(bytes.data(), block + 32);
    for (const auto& [a, b] : {std::pair{0, 1}, std::pair{1, 2}, std::pair{2, 3},
                               std::pair{0, 3}}) {
      auto* wa = bytes.data() + block + 8 * a;
      auto* wb = bytes.data() + block + 8 * b;
      if (std::equal(wa, wa + 8, wb)) continue;  // the swap is a no-op
      std::swap_ranges(wa, wa + 8, wb);
      EXPECT_NE(integrity::content_digest(bytes), clean) << "block " << block / 32;
      EXPECT_NE(integrity::content_digest(bytes.data(), block + 32), clean_prefix)
          << "prefix ending at block " << block / 32;
      std::swap_ranges(wa, wa + 8, wb);
      ++swaps;
    }
  }
  EXPECT_GT(swaps, 100u);
}

TEST(Integrity, DigestCoversOddLengthTailsAndEmptyPayloads) {
  // 20153 bytes: 629 full blocks plus a 25-byte tail (three words that do
  // not fill a block, and a byte remainder).
  auto bytes = cutout_payload();
  bytes.resize(20153);
  ASSERT_NE(bytes.size() % 32, 0u);
  const std::uint64_t clean = integrity::content_digest(bytes);
  for (std::size_t i = bytes.size() - 64; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(integrity::content_digest(bytes), clean) << "byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  // Appending a zero byte is not a no-op either.
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_NE(integrity::content_digest(longer), clean);

  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(integrity::content_digest(empty), integrity::content_digest(nullptr, 0));
  EXPECT_NE(integrity::content_digest(empty), integrity::content_digest({0}));
  EXPECT_NE(integrity::content_digest(empty), integrity::content_digest(bytes));
}

TEST(Integrity, DigestIsBoundToTheUrl) {
  // Same bytes served for two different resources sign differently — this
  // is what makes a stale-replica replay (valid bytes, wrong resource)
  // detectable.
  const auto body = bytes_of("identical bytes");
  auto u1 = Url::parse("http://mast.sim/cutout?POS=1,2");
  auto u2 = Url::parse("http://mast.sim/cutout?POS=3,4");
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  EXPECT_NE(integrity::sign_payload(body, *u1), integrity::sign_payload(body, *u2));
}

TEST(Integrity, PayloadMismatchDetectsFlipTruncationAndStaleness) {
  auto url = Url::parse("http://mast.sim/cutout?POS=1,2");
  ASSERT_TRUE(url.ok());
  HttpResponse r = HttpResponse::text("payload");
  r.digest = integrity::sign_payload(r.body, *url);
  EXPECT_FALSE(integrity::payload_mismatch(r, *url));

  HttpResponse flipped = r;
  flipped.body[0] ^= 0x40;
  EXPECT_TRUE(integrity::payload_mismatch(flipped, *url));

  HttpResponse truncated = r;
  truncated.body.resize(3);
  EXPECT_TRUE(integrity::payload_mismatch(truncated, *url));

  // Stale replay: a response correctly signed for a different URL.
  auto other = Url::parse("http://mast.sim/cutout?POS=9,9");
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(integrity::payload_mismatch(r, *other));

  // Unsigned responses (hand-built fixtures) verify trivially.
  HttpResponse unsigned_r = HttpResponse::text("payload");
  EXPECT_FALSE(integrity::payload_mismatch(unsigned_r, *url));
}

TEST(Integrity, FabricSignsEveryResponse) {
  HttpFabric fabric(3);
  fabric.route("mast.sim", "/img", ok_handler());
  auto r = fabric.get("http://mast.sim/img?id=G1");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->digest, 0u);
  auto url = Url::parse("http://mast.sim/img?id=G1");
  ASSERT_TRUE(url.ok());
  EXPECT_FALSE(integrity::payload_mismatch(*r, *url));
}

// ---------------------------------------------------------------------------
// QuarantineList
// ---------------------------------------------------------------------------

TEST(QuarantineList, QuarantineExpiresOnTheClockAndReleasesEarly) {
  integrity::QuarantineList q;
  q.quarantine("mast.sim", "/img?id=G1", 1000.0, 500.0);
  EXPECT_TRUE(q.is_quarantined("mast.sim", "/img?id=G1", 1100.0));
  EXPECT_FALSE(q.is_quarantined("mast.sim", "/img?id=G2", 1100.0));
  EXPECT_FALSE(q.is_quarantined("mirror.sim", "/img?id=G1", 1100.0));
  EXPECT_FALSE(q.is_quarantined("mast.sim", "/img?id=G1", 1501.0));  // lapsed

  q.quarantine("mast.sim", "/img?id=G3", 0.0, 1e9);
  q.release("mast.sim", "/img?id=G3");
  EXPECT_FALSE(q.is_quarantined("mast.sim", "/img?id=G3", 1.0));
  EXPECT_EQ(q.stats().quarantines, 2u);
  EXPECT_EQ(q.stats().releases, 1u);
}

TEST(QuarantineList, EarlyReleaseReopensTheResourceImmediately) {
  integrity::QuarantineList q;
  // Long quarantine, then a verified fetch releases it early: the resource
  // must be usable at once, not at expiry, and the accounting must show the
  // skip/release history.
  q.quarantine("mast.sim", "/img?id=G7", 0.0, 1e9);
  EXPECT_EQ(q.active(1.0), 1u);
  q.count_skip();
  q.count_skip();
  EXPECT_TRUE(q.is_quarantined("mast.sim", "/img?id=G7", 1.0));

  q.release("mast.sim", "/img?id=G7");
  EXPECT_FALSE(q.is_quarantined("mast.sim", "/img?id=G7", 2.0));
  EXPECT_EQ(q.active(2.0), 0u);

  // Releasing an absent entry is a no-op and NOT counted — `releases`
  // tracks real early releases only.
  q.release("mast.sim", "/img?id=NEVER");

  // Re-quarantine after release works — release does not whitelist.
  q.quarantine("mast.sim", "/img?id=G7", 10.0, 100.0);
  EXPECT_TRUE(q.is_quarantined("mast.sim", "/img?id=G7", 20.0));

  EXPECT_EQ(q.stats().quarantines, 2u);
  EXPECT_EQ(q.stats().releases, 1u);
  EXPECT_EQ(q.stats().skips, 2u);
}

// ---------------------------------------------------------------------------
// ResilientClient: verify-after-transfer, retry, quarantine, failover
// ---------------------------------------------------------------------------

TEST(ResilientClient, CorruptedResponseIsRetriedUntilClean) {
  HttpFabric fabric(21);
  fabric.route("mast.sim", "/img", ok_handler());
  // Corrupt the first two responses; the third passes untouched.
  int served = 0;
  fabric.set_response_tamperer(
      [&served](const Url&, HttpResponse& r, double, Rng&) {
        if (++served <= 2) {
          r.body[0] ^= 0x01;
          return true;
        }
        return false;
      });
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.deadline_ms = 0.0;
  ResilientClient client(fabric, retry, BreakerPolicy{});

  auto r = client.get("http://mast.sim/img?id=G1");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->body_text(), "clean payload");
  const EndpointStats totals = client.totals();
  EXPECT_EQ(totals.integrity_failures, 2u);
  EXPECT_EQ(totals.retries, 2u);
  EXPECT_EQ(fabric.metrics().corruptions_injected, 2u);
  // The verified success released the quarantine the bad bytes created.
  EXPECT_EQ(client.quarantine().stats().quarantines, 2u);
  EXPECT_EQ(client.quarantine().stats().releases, 1u);
}

TEST(ResilientClient, PersistentCorruptionFailsOverToTheMirrorAndQuarantines) {
  HttpFabric fabric(22);
  fabric.route("mast.sim", "/img", ok_handler());
  fabric.route("mirror.sim", "/img", ok_handler());
  ChaosSchedule chaos;
  chaos.bit_flip("mast.sim", 1.0);  // every primary response corrupted
  install_chaos(fabric, chaos);

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.deadline_ms = 0.0;
  ResilientClient client(fabric, retry, BreakerPolicy{});
  client.add_mirror("mast.sim", "mirror.sim");

  auto r = client.get("http://mast.sim/img?id=G1");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->body_text(), "clean payload");
  const EndpointStats* primary = client.stats_for("mast.sim");
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(primary->integrity_failures, 3u);  // every attempt caught
  EXPECT_EQ(client.totals().failovers, 1u);

  // The resource is quarantined on the primary now: the next request skips
  // straight to the mirror without re-trusting the endpoint.
  auto again = client.get("http://mast.sim/img?id=G1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(primary->attempts, 3u);  // unchanged — primary never re-consulted
  EXPECT_EQ(primary->quarantine_skips, 1u);
  EXPECT_EQ(client.quarantine().stats().skips, 1u);
}

TEST(ResilientClient, TruncationWindowIsCaughtByTheDigest) {
  HttpFabric fabric(23);
  fabric.route("mast.sim", "/img", ok_handler("a longer payload to truncate"));
  ChaosSchedule chaos;
  chaos.truncate("mast.sim", 1.0, 0.0, 1e7);
  install_chaos(fabric, chaos);

  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.deadline_ms = 0.0;
  ResilientClient client(fabric, retry, BreakerPolicy{});
  auto r = client.get("http://mast.sim/img?id=G1");
  ASSERT_FALSE(r.ok());  // no mirror: corruption surfaces as an error...
  EXPECT_EQ(r.error().code, ErrorCode::kDataCorruption);  // ...never as bytes
  EXPECT_EQ(client.totals().integrity_failures, 2u);
}

TEST(ResilientClient, StaleReplicaReplayIsCaughtByUrlBinding) {
  HttpFabric fabric(24);
  // Distinct bodies per resource, so a cross-resource replay is plausible.
  fabric.route("mast.sim", "/img", [](const Url& url) {
    return HttpResponse::text("payload for " + url.param("id").value_or("?"));
  });
  ChaosSchedule chaos;
  chaos.stale_replica("mast.sim", 1.0);
  install_chaos(fabric, chaos);

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.deadline_ms = 0.0;
  ResilientClient client(fabric, retry, BreakerPolicy{});

  // First resource primes the stale store (nothing to replay yet).
  auto r1 = client.get("http://mast.sim/img?id=G1");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->body_text(), "payload for G1");

  // Second resource: the window replays G1's (validly signed) bytes. The
  // URL binding catches it; the retry serves the true bytes.
  auto r2 = client.get("http://mast.sim/img?id=G2");
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2->body_text(), "payload for G2");
  EXPECT_GE(client.totals().integrity_failures, 1u);
  EXPECT_GE(fabric.metrics().corruptions_injected, 1u);
}

TEST(ChaosSchedule, CorruptionWindowsRespectTheClock) {
  HttpFabric fabric(25);
  fabric.route("mast.sim", "/img", ok_handler());
  ChaosSchedule chaos;
  chaos.bit_flip("mast.sim", 1.0, /*start_ms=*/1e6, /*end_ms=*/2e6);
  install_chaos(fabric, chaos);
  // Before the window opens, responses pass untouched.
  auto r = fabric.get("http://mast.sim/img?id=G1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->body_text(), "clean payload");
  EXPECT_EQ(fabric.metrics().corruptions_injected, 0u);
}

// ---------------------------------------------------------------------------
// ReplicaCache admission/read verification
// ---------------------------------------------------------------------------

TEST(ReplicaCache, AdmissionRejectsBytesThatFailTheExpectedDigest) {
  ReplicaCacheConfig cfg;
  cfg.shards = 1;
  ReplicaCache cache(cfg);
  const auto bytes = bytes_of("image bytes");
  const std::uint64_t good = integrity::content_digest(bytes);

  EXPECT_EQ(cache.put("img_bad", bytes_of("image bytes"), good ^ 0x1), nullptr);
  EXPECT_EQ(cache.stats().integrity_rejects, 1u);
  EXPECT_EQ(cache.get("img_bad"), nullptr);

  ASSERT_NE(cache.put("img_ok", bytes_of("image bytes"), good), nullptr);
  EXPECT_EQ(cache.digest_of("img_ok"), good);
  ASSERT_NE(cache.get("img_ok"), nullptr);
}

TEST(ReplicaCache, ReadVerificationDropsRottenEntries) {
  ReplicaCacheConfig cfg;
  cfg.shards = 1;
  ReplicaCache cache(cfg);
  std::vector<std::string> evicted;
  cache.set_eviction_callback([&](const std::string& lfn) {
    evicted.push_back(lfn);
  });
  auto payload = cache.put("img", bytes_of("pristine bytes"));
  ASSERT_NE(payload, nullptr);
  // Simulate storage rot: flip a bit in the resident bytes. The payload
  // vector was created mutable; the const view is the cache's contract.
  auto& rotten = const_cast<std::vector<std::uint8_t>&>(*payload);
  rotten[0] ^= 0x10;

  EXPECT_EQ(cache.get("img"), nullptr);  // caught at read, never served
  EXPECT_EQ(cache.stats().integrity_mismatches, 1u);
  EXPECT_EQ(evicted, std::vector<std::string>{"img"});
  EXPECT_FALSE(cache.contains("img"));
}

// ---------------------------------------------------------------------------
// RLS digest propagation
// ---------------------------------------------------------------------------

TEST(Rls, CarriesAndVerifiesPerLfnDigests) {
  pegasus::ReplicaLocationService rls;
  rls.add("img_G1.fits", "isi", "http://mast.sim/img?id=G1", 0xABCD);
  EXPECT_EQ(rls.digest_for("img_G1.fits"), 0xABCDu);
  EXPECT_EQ(rls.digest_for("unknown.fits"), 0u);

  EXPECT_TRUE(rls.verify_digest("img_G1.fits", 0xABCD).ok());
  EXPECT_TRUE(rls.verify_digest("img_G1.fits", 0).ok());  // unsigned: trusted
  const Status s = rls.verify_digest("img_G1.fits", 0xBEEF);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kDataCorruption);
  EXPECT_EQ(rls.stats().digest_mismatches, 1u);

  // A later replica refreshes the digest; replicas at other sites inherit
  // visibility through the first-nonzero rule.
  rls.add("img_G1.fits", "isi", "http://mast.sim/img?id=G1", 0x1234);
  EXPECT_EQ(rls.digest_for("img_G1.fits"), 0x1234u);
}

}  // namespace
}  // namespace nvo::services
