// Tests for the simulated NVO federation layer: URL handling, the HTTP
// fabric, the Cone Search and SIA protocols, and the five Table-1 data
// centers.
#include <gtest/gtest.h>

#include "services/cone_search.hpp"
#include "services/federation.hpp"
#include "services/http.hpp"
#include "services/sia.hpp"
#include "sim/universe.hpp"
#include "votable/votable_io.hpp"

namespace nvo::services {
namespace {

// ---------------------------------------------------------------------------
// Url
// ---------------------------------------------------------------------------

TEST(Url, ParseFull) {
  auto url = Url::parse("http://mast.stsci.sim/cutout/sia?POS=137.3,10.97&SIZE=0.1");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->host, "mast.stsci.sim");
  EXPECT_EQ(url->path, "/cutout/sia");
  EXPECT_EQ(url->param("POS").value(), "137.3,10.97");
  EXPECT_DOUBLE_EQ(url->param_double("SIZE").value(), 0.1);
  EXPECT_FALSE(url->param("MISSING").has_value());
}

TEST(Url, ParseNoQueryNoPath) {
  auto url = Url::parse("http://host.sim");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path, "/");
  auto url2 = Url::parse("http://host.sim/path");
  ASSERT_TRUE(url2.ok());
  EXPECT_TRUE(url2->query.empty());
}

TEST(Url, RejectsNoScheme) { EXPECT_FALSE(Url::parse("host/path").ok()); }

TEST(Url, EncodeDecodeRoundTrip) {
  Url url;
  url.host = "h.sim";
  url.path = "/p";
  url.query["key"] = "a b&c=d/e";
  auto parsed = Url::parse(url.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->param("key").value(), "a b&c=d/e");
}

// ---------------------------------------------------------------------------
// HttpFabric
// ---------------------------------------------------------------------------

TEST(HttpFabric, RoutesByHostAndLongestPrefix) {
  HttpFabric fabric;
  fabric.route("a.sim", "/x", [](const Url&) {
    return HttpResponse::text("short");
  });
  fabric.route("a.sim", "/x/deep", [](const Url&) {
    return HttpResponse::text("long");
  });
  fabric.route("b.sim", "/x", [](const Url&) {
    return HttpResponse::text("other-host");
  });
  EXPECT_EQ(fabric.get("http://a.sim/x/deep/file")->body_text(), "long");
  EXPECT_EQ(fabric.get("http://a.sim/x/other")->body_text(), "short");
  EXPECT_EQ(fabric.get("http://b.sim/x")->body_text(), "other-host");
  EXPECT_FALSE(fabric.get("http://c.sim/x").ok());
}

TEST(HttpFabric, MetricsAccumulate) {
  HttpFabric fabric;
  fabric.route("a.sim", "/", [](const Url&) {
    return HttpResponse::text("12345");
  });
  (void)fabric.get("http://a.sim/");
  (void)fabric.get("http://a.sim/");
  EXPECT_EQ(fabric.metrics().requests, 2u);
  EXPECT_EQ(fabric.metrics().bytes_transferred, 10u);
  EXPECT_GT(fabric.metrics().total_elapsed_ms, 0.0);
  fabric.reset_metrics();
  EXPECT_EQ(fabric.metrics().requests, 0u);
}

TEST(HttpFabric, LatencyModelScalesWithPayload) {
  HttpFabric fabric;
  EndpointModel slow;
  slow.latency_ms = 100.0;
  slow.bandwidth_mbps = 1.0;  // 1 Mbit/s
  fabric.route("a.sim", "/big", [](const Url&) {
    return HttpResponse::text(std::string(125000, 'x'));  // 1 Mbit
  }, slow);
  auto r = fabric.get("http://a.sim/big");
  ASSERT_TRUE(r.ok());
  // ~100 ms latency + ~1000 ms transfer, with 10% jitter.
  EXPECT_NEAR(r->elapsed_ms, 1100.0, 120.0);
}

TEST(HttpFabric, DownEndpointReturns503Class) {
  HttpFabric fabric;
  fabric.route("a.sim", "/svc", [](const Url&) {
    return HttpResponse::text("up");
  });
  ASSERT_TRUE(fabric.set_up("a.sim", "/svc", false).ok());
  auto r = fabric.get("http://a.sim/svc");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kServiceUnavailable);
  ASSERT_TRUE(fabric.set_up("a.sim", "/svc", true).ok());
  EXPECT_TRUE(fabric.get("http://a.sim/svc").ok());
  EXPECT_FALSE(fabric.set_up("nope.sim", "/x", true).ok());
}

TEST(HttpFabric, FailureCountersItemizeEveryClass) {
  HttpFabric fabric(9);
  EndpointModel always_down;
  always_down.up = false;
  fabric.route("down.sim", "/x", [](const Url&) {
    return HttpResponse::text("never");
  }, always_down);
  EndpointModel always_fail;
  always_fail.failure_rate = 1.0;
  fabric.route("flaky.sim", "/y", [](const Url&) {
    return HttpResponse::text("rarely");
  }, always_fail);

  EXPECT_FALSE(fabric.get("http://down.sim/x").ok());     // hard down
  EXPECT_FALSE(fabric.get("http://flaky.sim/y").ok());    // sampled 503
  EXPECT_FALSE(fabric.get("http://nowhere.sim/z").ok());  // unrouted

  // `failures` counts all three; the itemized counters split them.
  EXPECT_EQ(fabric.metrics().failures, 3u);
  EXPECT_EQ(fabric.metrics().hard_down, 1u);
  EXPECT_EQ(fabric.metrics().transient_failures, 1u);
  EXPECT_EQ(fabric.metrics().unrouted, 1u);
}

TEST(HttpFabric, PerRouteMetricsBreakdown) {
  HttpFabric fabric(9);
  fabric.route("a.sim", "/x", [](const Url&) {
    return HttpResponse::text("12345");
  });
  fabric.route("a.sim", "/y", [](const Url&) {
    return HttpResponse::text("67");
  });
  (void)fabric.get("http://a.sim/x");
  (void)fabric.get("http://a.sim/x");
  (void)fabric.get("http://a.sim/y");

  const auto x = fabric.metrics_for("a.sim", "/x");
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->requests, 2u);
  EXPECT_EQ(x->bytes_transferred, 10u);
  EXPECT_GT(x->total_elapsed_ms, 0.0);
  const auto y = fabric.metrics_for("a.sim", "/y");
  ASSERT_TRUE(y.has_value());
  EXPECT_EQ(y->requests, 1u);
  EXPECT_EQ(y->bytes_transferred, 2u);
  // Per-route totals add up to the global ones.
  EXPECT_EQ(x->requests + y->requests, fabric.metrics().requests);
  EXPECT_EQ(x->bytes_transferred + y->bytes_transferred,
            fabric.metrics().bytes_transferred);
  EXPECT_DOUBLE_EQ(x->total_elapsed_ms + y->total_elapsed_ms,
                   fabric.metrics().total_elapsed_ms);
  // Unknown route: no metrics; reset clears per-route state too.
  EXPECT_FALSE(fabric.metrics_for("a.sim", "/nope").has_value());
  fabric.reset_metrics();
  EXPECT_EQ(fabric.metrics_for("a.sim", "/x")->requests, 0u);
}

TEST(HttpFabric, AdvanceClockMovesSimulatedTimeForward) {
  HttpFabric fabric(4);
  EXPECT_DOUBLE_EQ(fabric.now_ms(), 0.0);
  fabric.advance_clock(250.0);
  EXPECT_DOUBLE_EQ(fabric.now_ms(), 250.0);
  fabric.advance_clock(-50.0);  // negative waits are ignored
  EXPECT_DOUBLE_EQ(fabric.now_ms(), 250.0);
}

TEST(HttpFabric, TransientFailuresAtConfiguredRate) {
  HttpFabric fabric(12345);
  EndpointModel flaky;
  flaky.failure_rate = 0.5;
  fabric.route("a.sim", "/f", [](const Url&) {
    return HttpResponse::text("ok");
  }, flaky);
  int failures = 0;
  for (int i = 0; i < 400; ++i) {
    if (!fabric.get("http://a.sim/f").ok()) ++failures;
  }
  EXPECT_NEAR(failures / 400.0, 0.5, 0.1);
}

// ---------------------------------------------------------------------------
// Cone Search
// ---------------------------------------------------------------------------

votable::Table position_catalog() {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({Field{"id", DataType::kString},
                    Field{"ra", DataType::kDouble},
                    Field{"dec", DataType::kDouble}});
  (void)t.append_row({Value::of_string("near"), Value::of_double(180.0),
                      Value::of_double(0.05)});
  (void)t.append_row({Value::of_string("far"), Value::of_double(185.0),
                      Value::of_double(3.0)});
  return t;
}

TEST(ConeSearch, FiltersByCone) {
  HttpFabric fabric;
  fabric.route("cat.sim", "/cone", make_cone_search_handler(position_catalog));
  auto hits = cone_search(fabric, "http://cat.sim/cone", {180.0, 0.0}, 0.2);
  ASSERT_TRUE(hits.ok()) << hits.error().to_string();
  ASSERT_EQ(hits->num_rows(), 1u);
  EXPECT_EQ(hits->cell(0, "id").as_string().value(), "near");
}

TEST(ConeSearch, EmptyConeYieldsEmptyTable) {
  HttpFabric fabric;
  fabric.route("cat.sim", "/cone", make_cone_search_handler(position_catalog));
  auto hits = cone_search(fabric, "http://cat.sim/cone", {10.0, -60.0}, 0.5);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->num_rows(), 0u);
}

TEST(ConeSearch, MissingParamsAreProtocolError) {
  HttpFabric fabric;
  fabric.route("cat.sim", "/cone", make_cone_search_handler(position_catalog));
  auto raw = fabric.get("http://cat.sim/cone?RA=1.0");  // no DEC/SR
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->status, 400);
}

// ---------------------------------------------------------------------------
// SIA
// ---------------------------------------------------------------------------

TEST(Sia, RecordsTableRoundTrip) {
  std::vector<SiaRecord> records(2);
  records[0].title = "DSS A2390";
  records[0].center = {328.4, 17.7};
  records[0].size_deg = 0.28;
  records[0].access_url = "http://x.sim/img?i=0";
  records[0].estimated_bytes = 12345;
  records[1].title = "second";
  records[1].access_url = "http://x.sim/img?i=1";
  auto parsed = sia_records_from_table(sia_records_to_table(records));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].title, "DSS A2390");
  EXPECT_EQ((*parsed)[0].estimated_bytes, 12345u);
  EXPECT_NEAR((*parsed)[0].center.ra_deg, 328.4, 1e-9);
}

TEST(Sia, QueryAndFetchEndToEnd) {
  HttpFabric fabric;
  fabric.route("img.sim", "/sia", make_sia_query_handler([](const sky::Equatorial& pos,
                                                            double size) {
    std::vector<SiaRecord> out;
    if (sky::within_cone({100.0, 20.0}, size, pos)) {
      SiaRecord r;
      r.title = "match";
      r.center = {100.0, 20.0};
      r.access_url = "http://img.sim/image?n=1";
      out.push_back(r);
    }
    return out;
  }));
  fabric.route("img.sim", "/image", make_image_handler([](const Url&) {
    image::FitsFile f;
    f.data = image::Image(16, 16, 7.0f);
    return f;
  }));
  auto records = sia_query(fabric, "http://img.sim/sia", {100.05, 20.0}, 0.5);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  auto fits = fetch_image(fabric, records->front().access_url);
  ASSERT_TRUE(fits.ok()) << fits.error().to_string();
  EXPECT_FLOAT_EQ(fits->data.at(8, 8), 7.0f);
}

TEST(Sia, BadQueryParamsRejected) {
  HttpFabric fabric;
  fabric.route("img.sim", "/sia",
               make_sia_query_handler([](const sky::Equatorial&, double) {
                 return std::vector<SiaRecord>{};
               }));
  auto no_size = fabric.get("http://img.sim/sia?POS=1,2");
  ASSERT_TRUE(no_size.ok());
  EXPECT_EQ(no_size->status, 400);
  auto bad_pos = fabric.get("http://img.sim/sia?POS=xy&SIZE=1");
  ASSERT_TRUE(bad_pos.ok());
  EXPECT_EQ(bad_pos->status, 400);
}

// ---------------------------------------------------------------------------
// Federation (Table 1)
// ---------------------------------------------------------------------------

class FederationTest : public ::testing::Test {
 protected:
  FederationTest()
      : universe_(sim::Universe::make_paper_campaign(5, 0.05)),
        fabric_(42),
        federation_(register_federation(fabric_, universe_)) {}

  sim::Universe universe_;
  HttpFabric fabric_;
  Federation federation_;
};

TEST_F(FederationTest, NedConeReturnsClusterMembers) {
  const sim::Cluster& c = universe_.clusters().front();
  auto hits = cone_search(fabric_, federation_.ned_cone, c.center(),
                          c.spec.extent_arcmin / 60.0);
  ASSERT_TRUE(hits.ok()) << hits.error().to_string();
  EXPECT_EQ(hits->num_rows(), c.galaxies.size());
}

TEST_F(FederationTest, ConeIsPositional) {
  // A cone at the first cluster must not return members of the second.
  const sim::Cluster& a = universe_.clusters()[0];
  auto hits = cone_search(fabric_, federation_.ned_cone, a.center(), 0.3);
  ASSERT_TRUE(hits.ok());
  for (std::size_t i = 0; i < hits->num_rows(); ++i) {
    const std::string id = hits->cell(i, "id").as_string().value();
    EXPECT_EQ(id.find(a.name()), 0u) << id;
  }
}

TEST_F(FederationTest, DssSiaFindsFieldImage) {
  const sim::Cluster& c = universe_.clusters().front();
  auto records = sia_query(fabric_, federation_.dss_sia, c.center(), 0.5);
  ASSERT_TRUE(records.ok());
  ASSERT_GE(records->size(), 1u);
  auto fits = fetch_image(fabric_, records->front().access_url);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits->data.width(), 512);
  EXPECT_EQ(fits->header.get_string("OBJECT").value(), c.name());
}

TEST_F(FederationTest, XrayArchivesServeDifferentResolutions) {
  const sim::Cluster& c = universe_.clusters().front();
  auto chandra = sia_query(fabric_, federation_.chandra_sia, c.center(), 0.5);
  auto rosat = sia_query(fabric_, federation_.rosat_sia, c.center(), 0.5);
  ASSERT_TRUE(chandra.ok());
  ASSERT_TRUE(rosat.ok());
  ASSERT_GE(chandra->size(), 1u);
  ASSERT_GE(rosat->size(), 1u);
  auto chandra_img = fetch_image(fabric_, chandra->front().access_url);
  auto rosat_img = fetch_image(fabric_, rosat->front().access_url);
  ASSERT_TRUE(chandra_img.ok());
  ASSERT_TRUE(rosat_img.ok());
  EXPECT_GT(chandra_img->data.width(), rosat_img->data.width());
}

TEST_F(FederationTest, CutoutSiaPerGalaxyAndBatched) {
  const sim::Cluster& c = universe_.clusters().front();
  const sim::GalaxyTruth& g = c.galaxies.front();
  // Per-galaxy query: small cone around one member.
  auto one = sia_query(fabric_, federation_.cutout_sia, g.position, 64.0 / 3600.0);
  ASSERT_TRUE(one.ok());
  ASSERT_GE(one->size(), 1u);
  // Batched query: a cone covering the whole cluster returns every member.
  auto all = sia_query(fabric_, federation_.cutout_sia, c.center(),
                       2.0 * c.spec.extent_arcmin / 60.0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), c.galaxies.size());
}

TEST_F(FederationTest, CutoutImageFetchable) {
  const sim::Cluster& c = universe_.clusters().front();
  const sim::GalaxyTruth& g = c.galaxies.front();
  auto records = sia_query(fabric_, federation_.cutout_sia, g.position, 64.0 / 3600.0);
  ASSERT_TRUE(records.ok());
  ASSERT_GE(records->size(), 1u);
  auto fits = fetch_image(fabric_, records->front().access_url);
  ASSERT_TRUE(fits.ok()) << fits.error().to_string();
  EXPECT_EQ(fits->data.width(), 64);
  EXPECT_EQ(fits->header.get_string("OBJECT").value(), g.id);
}

TEST_F(FederationTest, CutoutAwayFromAnyGalaxyIs404) {
  auto r = fabric_.get("http://archive.stsci.sim/cutout/image?POS=10.0,-80.0&SIZE=0.02");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
}

TEST_F(FederationTest, ArchiveOutageIsIsolated) {
  ASSERT_TRUE(fabric_.set_up(Federation::kCadcHost, "/cnoc/cone", false).ok());
  const sim::Cluster& c = universe_.clusters().front();
  auto cnoc = cone_search(fabric_, federation_.cnoc_cone, c.center(), 0.2);
  EXPECT_FALSE(cnoc.ok());
  // NED is unaffected.
  auto ned = cone_search(fabric_, federation_.ned_cone, c.center(), 0.2);
  EXPECT_TRUE(ned.ok());
}

}  // namespace
}  // namespace nvo::services
