// Data-plane invariants: the replica cache must change performance, never
// science (byte-identical morphology and Dressler outputs with the cache
// starved vs. unbounded); a warm cache must shrink the Pegasus plan; and
// the single-pass VOTable codec must be byte-identical to the tree path.
#include <gtest/gtest.h>

#include "analysis/campaign.hpp"
#include "analysis/dressler.hpp"
#include "image/fits.hpp"
#include "services/integrity.hpp"
#include "sim/render_cache.hpp"
#include "sim/universe.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"
#include "votable/xml.hpp"

namespace nvo::analysis {
namespace {

CampaignConfig small_config() {
  CampaignConfig config;
  config.population_scale = 0.03;  // clusters of ~8-17 members
  config.compute_threads = 2;
  return config;
}

TEST(DataPlane, ScienceIsCacheInvariant) {
  // Identical campaigns except for the image-cache budget: the default
  // (everything resident) vs. a 1-byte budget (every insert evicts its
  // predecessors — the cache is effectively off). The staged bytes are
  // pinned by shared_ptr for the kernels, so the catalog, the golden
  // kernel values inside it, and the Dressler analysis must not move by
  // a single byte.
  CampaignConfig cache_on = small_config();
  CampaignConfig cache_off = small_config();
  cache_off.image_cache.byte_budget = 1;

  Campaign a(cache_on);
  Campaign b(cache_off);
  const std::string name = a.universe().clusters().front().name();
  const sky::Equatorial center = a.universe().clusters().front().center();

  auto ra = a.portal().run_analysis(name);
  auto rb = b.portal().run_analysis(name);
  ASSERT_TRUE(ra.ok()) << ra.error().to_string();
  ASSERT_TRUE(rb.ok()) << rb.error().to_string();

  EXPECT_EQ(votable::to_votable_xml(ra->catalog), votable::to_votable_xml(rb->catalog));

  auto da = analyze_cluster(ra->catalog, center);
  auto db = analyze_cluster(rb->catalog, center);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(report_to_text(da.value()), report_to_text(db.value()));

  // The starved cache really did evict.
  EXPECT_GT(b.compute_service().replica_cache().stats().evictions, 0u);
}

TEST(DataPlane, WarmCachePrunesStageInTransfers) {
  Campaign campaign(small_config());
  const std::string name = campaign.universe().clusters().front().name();

  // Assemble the compute input the way the portal does.
  auto catalog = campaign.portal().build_galaxy_catalog(name);
  ASSERT_TRUE(catalog.ok());
  auto with_refs = campaign.portal().attach_cutout_refs(catalog.value(), name);
  ASSERT_TRUE(with_refs.ok());
  const auto url_col = with_refs->column_index("cutout_url");
  ASSERT_TRUE(url_col.has_value());
  const votable::Table input =
      votable::select(with_refs.value(), [&](const votable::Row& row) {
        const auto url = row[*url_col].as_string();
        return url && !url->empty();
      });
  ASSERT_GT(input.num_rows(), 0u);

  portal::MorphologyService& svc = campaign.compute_service();
  // Distinct output names so the second request misses the result cache
  // and must stage + plan again — this isolates the replica cache's effect.
  ASSERT_TRUE(svc.gal_morph_compute(input, "warm_cache_run1").ok());
  const portal::ServiceTrace cold = *svc.last_trace();
  ASSERT_TRUE(svc.gal_morph_compute(input, "warm_cache_run2").ok());
  const portal::ServiceTrace warm = *svc.last_trace();

  // Cold: every image over the (simulated) WAN. Warm: all served locally.
  EXPECT_EQ(cold.images_fetched, input.num_rows());
  EXPECT_EQ(warm.images_cached, input.num_rows());
  EXPECT_EQ(warm.images_fetched, 0u);
  EXPECT_GT(svc.replica_cache().stats().hits, 0u);

  // The warm plan moves less data: cache-resident LFNs are advertised in
  // the RLS, so Pegasus prunes/skips their stage-in transfer nodes.
  EXPECT_LT(warm.plan.transfer_nodes, cold.plan.transfer_nodes);

  // And the science agrees between the runs.
  EXPECT_EQ(warm.valid_results, cold.valid_results);
  EXPECT_EQ(warm.invalid_results, cold.invalid_results);
}

TEST(DataPlane, RenderCacheServesBitIdenticalFrames) {
  // The simulated archive memoizes frame synthesis process-wide. Because
  // every RNG stream is seeded from the truth records, a hit must be
  // byte-for-byte what a fresh render would produce — across repeated
  // requests and across separately constructed identical universes — while
  // differently seeded universes must never share frames.
  auto u1 = sim::Universe::make_paper_campaign(20031115, 0.02);
  const auto& cluster = u1.clusters().front();
  const auto& galaxy = cluster.galaxies.front();

  const auto before = sim::RenderCache::instance().stats();
  const auto cold = image::write_fits(u1.galaxy_cutout(cluster, galaxy));
  const auto warm = image::write_fits(u1.galaxy_cutout(cluster, galaxy));
  EXPECT_EQ(cold, warm);
  // The cache holds the encoded frame and its digest; decoding it for a
  // pixel caller and encoding again gives back the stored bytes, which are
  // what a fresh synthesis encodes to.
  const auto stored = u1.galaxy_cutout_fits(cluster, galaxy);
  EXPECT_EQ(cold, stored->fits);
  EXPECT_EQ(stored->digest, content_digest(stored->fits));
  EXPECT_EQ(cold, image::write_fits(sim::synthesize_galaxy_cutout(
                      cluster, galaxy, 64, u1.config().render, u1.config().seed,
                      u1.config().corruption_rate)));

  auto u2 = sim::Universe::make_paper_campaign(20031115, 0.02);
  const auto twin = image::write_fits(
      u2.galaxy_cutout(u2.clusters().front(), u2.clusters().front().galaxies.front()));
  EXPECT_EQ(cold, twin);

  const auto after = sim::RenderCache::instance().stats();
  EXPECT_GE(after.hits, before.hits + 2);

  auto u3 = sim::Universe::make_paper_campaign(40961024, 0.02);
  const auto other = image::write_fits(
      u3.galaxy_cutout(u3.clusters().front(), u3.clusters().front().galaxies.front()));
  EXPECT_NE(cold, other);
}

TEST(DataPlane, ArchiveServesPinnedCutoutBytes) {
  // Every byte the simulated MAST cutout service serves in a small
  // campaign: the SIA metadata bodies (which carry each record's access
  // URL) and the cutout FITS bodies. The digests were taken from the
  // printf-formatted, serve-time-encoded archive; a change to how the
  // archive formats URLs or stores frames must not move a byte.
  Campaign campaign(small_config());
  std::vector<std::uint8_t> sia_bodies, image_bodies;
  std::size_t sia_count = 0, image_count = 0;
  campaign.fabric().set_response_tamperer(
      [&](const services::Url& url, services::HttpResponse& response, double,
          Rng&) {
        if (url.path == "/cutout/sia") {
          sia_bodies.insert(sia_bodies.end(), response.body.begin(),
                            response.body.end());
          ++sia_count;
        } else if (url.path == "/cutout/image") {
          image_bodies.insert(image_bodies.end(), response.body.begin(),
                              response.body.end());
          ++image_count;
        }
        return false;
      });
  auto report = campaign.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(sia_count, 51u);
  EXPECT_EQ(services::integrity::content_digest(sia_bodies), 0x5932fcb347927be3ull);
  EXPECT_EQ(image_count, 75u);
  EXPECT_EQ(services::integrity::content_digest(image_bodies), 0x9fcb1b8e522a701aull);
}

TEST(DataPlane, FastCodecByteIdenticalToTreePath) {
  votable::Table table({
      {"id", votable::DataType::kString, "", "meta.id", "identifier"},
      {"ra", votable::DataType::kDouble, "deg", "pos.eq.ra", ""},
      {"n", votable::DataType::kLong, "", "", ""},
      {"ok", votable::DataType::kBool, "", "", ""},
      {"note", votable::DataType::kString, "", "", "free text"},
  });
  table.name = "codec_check";
  table.description = "fast vs tree <&> \"quotes\"";
  (void)table.append_row({votable::Value::of_string("G<1>&"),
                          votable::Value::of_double(187.70593),
                          votable::Value::of_long(-42), votable::Value::of_bool(true),
                          votable::Value::of_string("a & b < c > d \"q\" 'x'")});
  (void)table.append_row({votable::Value::of_string(""), votable::Value(),
                          votable::Value::of_long(0), votable::Value::of_bool(false),
                          votable::Value()});

  // Byte identity: single-pass serializer vs. the XML tree path.
  const std::string fast = votable::to_votable_xml(table);
  const std::string tree = votable::xml_serialize(*votable::to_votable_tree(table));
  EXPECT_EQ(fast, tree);

  // Round trip through the fast parser preserves every cell.
  votable::VotableReader reader;
  votable::Table parsed;
  ASSERT_TRUE(reader.read(fast, parsed).ok());
  EXPECT_EQ(votable::to_votable_xml(parsed), fast);

  // Re-reading into the same table (schema match -> storage recycled) is
  // still correct after the table already holds rows.
  ASSERT_TRUE(reader.read(fast, parsed).ok());
  EXPECT_EQ(votable::to_votable_xml(parsed), fast);

  // An empty table exercises the self-closing element forms.
  votable::Table empty({{"x", votable::DataType::kDouble, "", "", ""}});
  empty.name = "empty";
  EXPECT_EQ(votable::to_votable_xml(empty),
            votable::xml_serialize(*votable::to_votable_tree(empty)));
}

}  // namespace
}  // namespace nvo::analysis
