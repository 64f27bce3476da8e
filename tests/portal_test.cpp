// Tests for the portal layer: the XSLT-equivalent transforms, the
// asynchronous morphology compute service (Fig. 6 protocol), and the portal
// pipeline (Fig. 5 stages).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "analysis/campaign.hpp"
#include "common/strings.hpp"
#include "grid/checkpoint.hpp"
#include "portal/async_portal.hpp"
#include "portal/compute_service.hpp"
#include "portal/portal.hpp"
#include "portal/transforms.hpp"
#include "origin_digest_audit.hpp"
#include "services/federation.hpp"
#include "sim/universe.hpp"
#include "vds/chimera.hpp"
#include "vds/vdl_parser.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"

namespace nvo::portal {
namespace {

votable::Table tiny_catalog(int n = 3) {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({Field{"id", DataType::kString},
                    Field{"redshift", DataType::kDouble},
                    Field{"cutout_url", DataType::kString}});
  for (int i = 0; i < n; ++i) {
    (void)t.append_row({Value::of_string("CL_G" + std::to_string(i)),
                        Value::of_double(0.1 + 0.001 * i),
                        Value::of_string("http://img.sim/c?i=" + std::to_string(i))});
  }
  return t;
}

// ---------------------------------------------------------------------------
// transforms (the two "stylesheets")
// ---------------------------------------------------------------------------

TEST(Transforms, LfnConventions) {
  EXPECT_EQ(image_lfn("A_G1"), "A_G1.fit");
  EXPECT_EQ(result_lfn("A_G1"), "A_G1.txt");
  EXPECT_EQ(output_votable_lfn("A2390"), "A2390_morph.vot");
}

TEST(Transforms, CatalogToVdlStructure) {
  core::GalMorphArgs defaults;
  auto doc = vds::parse_vdl(catalog_to_vdl(tiny_catalog(3), "CL", defaults).value());
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  // galMorph + generated concat TR.
  ASSERT_EQ(doc->transformations.size(), 2u);
  EXPECT_EQ(doc->transformations[0].name, "galMorph");
  EXPECT_EQ(doc->transformations[0].args.size(), 8u);
  EXPECT_EQ(doc->transformations[1].name, "concatMorph_CL");
  EXPECT_EQ(doc->transformations[1].args.size(), 4u);  // 3 in + 1 out
  // One DV per galaxy + concat.
  ASSERT_EQ(doc->derivations.size(), 4u);
  EXPECT_EQ(doc->derivations[0].bindings.at("Ho").value, "100");
  EXPECT_EQ(doc->derivations[0].bindings.at("redshift").value, "0.1");
  // Ingest + compose: requesting the output VOTable pulls the whole thing.
  vds::VirtualDataCatalog vdc;
  ASSERT_TRUE(vdc.ingest(doc.value()).ok());
  auto dag = vds::compose_abstract_workflow(vdc, {output_votable_lfn("CL")});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 4u);  // 3 galMorph + concat
  EXPECT_EQ(dag->leaves().size(), 1u);
  EXPECT_EQ(vds::raw_inputs(dag.value()).size(), 3u);  // the cutout images
}

TEST(Transforms, CatalogToVdlPerGalaxyRedshift) {
  votable::Table catalog = tiny_catalog(2);
  catalog.set_cell(1, "redshift", votable::Value::of_double(0.42));
  core::GalMorphArgs defaults;
  auto doc = vds::parse_vdl(catalog_to_vdl(catalog, "CL", defaults).value());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->derivations[1].bindings.at("redshift").value, "0.42");
}

TEST(Transforms, DirectBuildMatchesParsedVdl) {
  // The service defines the derivations straight from the table; parsing
  // the printed VDL must give the same catalog, the same workflow and the
  // same byte count. Twelve galaxies, so formal r10 sorts before r2.
  votable::Table catalog = tiny_catalog(12);
  catalog.set_cell(3, "redshift", votable::Value::of_double(0.4242));
  const core::GalMorphArgs defaults;
  const auto text = catalog_to_vdl(catalog, "CL", defaults);
  ASSERT_TRUE(text.ok());
  auto doc = vds::parse_vdl(text.value());
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  vds::VirtualDataCatalog parsed;
  ASSERT_TRUE(parsed.ingest(doc.value()).ok());
  vds::VirtualDataCatalog direct;
  const auto bytes = define_catalog_derivations(catalog, "CL", defaults, direct);
  ASSERT_TRUE(bytes.ok()) << bytes.error().to_string();
  EXPECT_EQ(bytes.value(), text->size());

  EXPECT_EQ(direct.num_transformations(), parsed.num_transformations());
  for (const vds::Transformation& tr : doc->transformations) {
    const vds::Transformation* built = direct.transformation(tr.name);
    ASSERT_NE(built, nullptr) << tr.name;
    ASSERT_EQ(built->args.size(), tr.args.size());
    for (std::size_t i = 0; i < tr.args.size(); ++i) {
      EXPECT_EQ(built->args[i].name, tr.args[i].name);
      EXPECT_EQ(built->args[i].direction, tr.args[i].direction);
    }
  }
  EXPECT_EQ(direct.num_derivations(), parsed.num_derivations());
  for (const vds::Derivation& dv : doc->derivations) {
    const vds::Derivation* built = direct.derivation(dv.name);
    ASSERT_NE(built, nullptr) << dv.name;
    EXPECT_EQ(built->transformation, dv.transformation);
    ASSERT_EQ(built->bindings.size(), dv.bindings.size());
    for (const auto& [formal, actual] : dv.bindings) {
      const auto it = built->bindings.find(formal);
      ASSERT_NE(it, built->bindings.end()) << dv.name << " " << formal;
      EXPECT_EQ(it->second.is_file, actual.is_file);
      EXPECT_EQ(it->second.value, actual.value);
      EXPECT_EQ(it->second.direction, actual.direction);
    }
  }

  const std::vector<std::string> request = {output_votable_lfn("CL")};
  auto from_text = vds::compose_abstract_workflow(parsed, request);
  auto from_table = vds::compose_abstract_workflow(direct, request);
  ASSERT_TRUE(from_text.ok() && from_table.ok());
  EXPECT_EQ(from_table->node_ids(), from_text->node_ids());
  for (const std::string& id : from_text->node_ids()) {
    EXPECT_EQ(from_table->node(id)->inputs, from_text->node(id)->inputs) << id;
    EXPECT_EQ(from_table->node(id)->outputs, from_text->node(id)->outputs) << id;
    EXPECT_EQ(from_table->node(id)->args, from_text->node(id)->args) << id;
    EXPECT_EQ(from_table->parents(id), from_text->parents(id)) << id;
    EXPECT_EQ(from_table->children(id), from_text->children(id)) << id;
  }
}

TEST(Transforms, DirectBuildRejectsNamesTheVdlCannotSpell) {
  const core::GalMorphArgs defaults;
  votable::Table bad_id = tiny_catalog(2);
  bad_id.set_cell(1, "id", votable::Value::of_string("CL-G1"));
  for (const auto& [catalog, cluster] :
       {std::pair<votable::Table, std::string>{bad_id, "CL"},
        std::pair<votable::Table, std::string>{tiny_catalog(2), "CL 2"}}) {
    // The printed text does not parse back...
    const auto text = catalog_to_vdl(catalog, cluster, defaults);
    ASSERT_TRUE(text.ok());
    EXPECT_FALSE(vds::parse_vdl(text.value()).ok()) << cluster;
    // ...and the direct build refuses it the same way.
    vds::VirtualDataCatalog vdc;
    const auto direct = define_catalog_derivations(catalog, cluster, defaults, vdc);
    ASSERT_FALSE(direct.ok()) << cluster;
    EXPECT_EQ(direct.error().code, ErrorCode::kParseError);
  }
}

TEST(Transforms, EmptyCatalogRejected) {
  votable::Table empty({votable::Field{"id", votable::DataType::kString}});
  EXPECT_FALSE(catalog_to_vdl(empty, "CL", core::GalMorphArgs{}).ok());
}

// ---------------------------------------------------------------------------
// compute service + portal against the full simulated federation
// ---------------------------------------------------------------------------

class PortalFixture : public ::testing::Test {
 protected:
  PortalFixture() : campaign_(make_config()) {}

  static analysis::CampaignConfig make_config() {
    analysis::CampaignConfig config;
    config.population_scale = 0.02;  // clusters of 8..12 galaxies
    config.compute_threads = 2;
    return config;
  }

  analysis::Campaign campaign_;
};

TEST_F(PortalFixture, ServiceProtocolFullCycle) {
  // Build the compute input the way the portal would.
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto catalog = portal.build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog.ok()) << catalog.error().to_string();
  auto with_refs = portal.attach_cutout_refs(std::move(catalog.value()), cluster);
  ASSERT_TRUE(with_refs.ok());

  MorphologyService& service = campaign_.compute_service();
  auto status_url = service.gal_morph_compute(with_refs.value(), cluster);
  ASSERT_TRUE(status_url.ok()) << status_url.error().to_string();
  EXPECT_NE(status_url->find("/status?id=req-"), std::string::npos);

  auto poll = service.poll(*status_url);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, "completed");
  ASSERT_FALSE(poll->result_url.empty());
  EXPECT_FALSE(poll->messages.empty());

  auto result = service.fetch_result(poll->result_url);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->num_rows(), with_refs->num_rows());
  ASSERT_TRUE(result->column_index("valid").has_value());
  ASSERT_TRUE(result->column_index("asymmetry").has_value());

  const ServiceTrace* trace = service.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_FALSE(trace->cache_hit);
  EXPECT_EQ(trace->galaxies, with_refs->num_rows());
  EXPECT_EQ(trace->images_fetched, with_refs->num_rows());
  EXPECT_GT(trace->valid_results, 0u);
  // Workflow shape: N galMorph + 1 concat compute jobs.
  EXPECT_EQ(trace->execution.compute_jobs, with_refs->num_rows() + 1);
  EXPECT_GT(trace->execution.transfer_jobs, 0u);
  EXPECT_GT(trace->execution.register_jobs, 0u);
  EXPECT_GT(trace->total_sim_seconds, 0.0);
}

TEST_F(PortalFixture, StoredPayloadsAreSignedWithTheDigestRecordedAtStore) {
  // The archive's cutouts and the service's catalogs carry the digest their
  // origin recorded when it stored them; the signature a client checks is
  // the same one a serve-time hash of the body would give.
  const std::uint64_t checked_before = OriginDigestAudit::checked();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto run = campaign_.portal().run_analysis(cluster);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceTrace* trace = campaign_.compute_service().last_trace();
  ASSERT_NE(trace, nullptr);
  // Every staged cutout and the one /results fetch were origin-signed.
  EXPECT_GE(OriginDigestAudit::checked() - checked_before,
            trace->images_fetched + 1);
  EXPECT_EQ(OriginDigestAudit::mismatched(), 0u);

  for (const std::string& text :
       {run->catalog.cell(0, "cutout_url").as_string().value_or(""),
        "http://" + campaign_.compute_service().config().host +
            "/results?name=" + output_votable_lfn(cluster)}) {
    auto response = campaign_.fabric().get(text);
    ASSERT_TRUE(response.ok()) << text;
    EXPECT_NE(response->origin_digest, 0u) << text;
    auto url = services::Url::parse(text);
    ASSERT_TRUE(url.ok());
    EXPECT_EQ(response->digest, services::integrity::sign_payload(response->body, *url))
        << text;
  }
}

TEST_F(PortalFixture, SecondRequestIsCacheHit) {
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto catalog = portal.build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog.ok());
  auto with_refs = portal.attach_cutout_refs(std::move(catalog.value()), cluster);
  ASSERT_TRUE(with_refs.ok());

  MorphologyService& service = campaign_.compute_service();
  auto first = service.gal_morph_compute(with_refs.value(), cluster);
  ASSERT_TRUE(first.ok());
  const double first_sim = service.last_trace()->total_sim_seconds;

  auto second = service.gal_morph_compute(with_refs.value(), cluster);
  ASSERT_TRUE(second.ok());
  const ServiceTrace* trace = service.last_trace();
  EXPECT_TRUE(trace->cache_hit);
  EXPECT_DOUBLE_EQ(trace->total_sim_seconds, 0.0);
  EXPECT_GT(first_sim, 1.0);
  // The cached result is still served.
  auto poll = service.poll(*second);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, "completed");
  auto result = service.fetch_result(poll->result_url);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), with_refs->num_rows());
}

TEST_F(PortalFixture, ServiceRejectsBadInput) {
  MorphologyService& service = campaign_.compute_service();
  votable::Table no_urls({votable::Field{"id", votable::DataType::kString}});
  (void)no_urls.append_row({votable::Value::of_string("x")});
  auto url = service.gal_morph_compute(no_urls, "BAD1");
  ASSERT_TRUE(url.ok());  // async: errors surface via the status URL
  auto poll = service.poll(*url);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, "failed");
}

TEST_F(PortalFixture, PollUnknownRequestFails) {
  MorphologyService& service = campaign_.compute_service();
  auto poll = service.poll("http://" + service.config().host + "/status?id=req-999999");
  EXPECT_FALSE(poll.ok());
}

TEST_F(PortalFixture, LargeScaleImageSearchReturnsLinks) {
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  PortalTrace trace;
  auto links = portal.find_large_scale_images(cluster, &trace);
  ASSERT_TRUE(links.ok());
  EXPECT_GE(links->optical.size(), 1u);
  EXPECT_GE(links->xray.size(), 2u);  // ROSAT + Chandra
  EXPECT_GT(trace.image_search_ms, 0.0);
}

TEST_F(PortalFixture, CatalogJoinBringsBothSurveys) {
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto catalog = portal.build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog.ok());
  EXPECT_GT(catalog->num_rows(), 0u);
  // NED columns + CNOC columns joined on id.
  EXPECT_TRUE(catalog->column_index("mag").has_value());
  EXPECT_TRUE(catalog->column_index("g_r").has_value());
  EXPECT_TRUE(catalog->column_index("velocity").has_value());
}

TEST_F(PortalFixture, UnknownClusterRejected) {
  Portal& portal = campaign_.portal();
  EXPECT_FALSE(portal.build_galaxy_catalog("NOT_A_CLUSTER").ok());
  EXPECT_FALSE(portal.run_analysis("NOT_A_CLUSTER").ok());
}

TEST_F(PortalFixture, CutoutRefsAgreeAcrossQueryModes) {
  // The fixture portal runs the default kCoalesced patch batching.
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto catalog = portal.build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog.ok());
  PortalTrace coalesced_trace;
  auto coalesced =
      portal.attach_cutout_refs(catalog.value(), cluster, &coalesced_trace);
  ASSERT_TRUE(coalesced.ok());

  // The paper's per-galaxy loop: one metadata query per catalog row.
  analysis::CampaignConfig pg_config = make_config();
  pg_config.cutout_mode = portal::CutoutQueryMode::kPerGalaxy;
  analysis::Campaign per_galaxy_campaign(pg_config);
  PortalTrace per_galaxy_trace;
  auto catalog1 = per_galaxy_campaign.portal().build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog1.ok());
  auto per_galaxy = per_galaxy_campaign.portal().attach_cutout_refs(
      catalog1.value(), cluster, &per_galaxy_trace);
  ASSERT_TRUE(per_galaxy.ok());
  EXPECT_EQ(per_galaxy_trace.cutout_queries, catalog->num_rows());

  // Wide-cone portal: a single cluster-wide query.
  analysis::CampaignConfig batched_config = make_config();
  batched_config.cutout_mode = portal::CutoutQueryMode::kWideCone;
  analysis::Campaign batched(batched_config);
  PortalTrace batched_trace;
  auto catalog2 = batched.portal().build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog2.ok());
  auto batched_refs =
      batched.portal().attach_cutout_refs(catalog2.value(), cluster, &batched_trace);
  ASSERT_TRUE(batched_refs.ok());
  EXPECT_EQ(batched_trace.cutout_queries, 1u);

  // Coalescing lands between the extremes: far fewer round-trips than
  // per-galaxy, patch-sized responses instead of cluster-sized ones.
  EXPECT_GE(coalesced_trace.cutout_queries, 1u);
  EXPECT_LT(coalesced_trace.cutout_queries, per_galaxy_trace.cutout_queries);

  // Same galaxies end with the same access URLs in every mode.
  for (std::size_t i = 0; i < per_galaxy->num_rows(); ++i) {
    EXPECT_EQ(per_galaxy->cell(i, "cutout_url").as_string(),
              batched_refs->cell(i, "cutout_url").as_string());
    EXPECT_EQ(per_galaxy->cell(i, "cutout_url").as_string(),
              coalesced->cell(i, "cutout_url").as_string());
  }
  // And the batched modes are cheaper in simulated time (coalescing's
  // margin grows with density; this test population is deliberately tiny).
  EXPECT_LT(batched_trace.cutout_query_ms, per_galaxy_trace.cutout_query_ms / 2.0);
  EXPECT_LT(coalesced_trace.cutout_query_ms, per_galaxy_trace.cutout_query_ms);
}

TEST_F(PortalFixture, FullAnalysisMergesMorphology) {
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto outcome = portal.run_analysis(cluster);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  const votable::Table& merged = outcome->catalog;
  EXPECT_GT(merged.num_rows(), 0u);
  // Original catalog columns + morphology columns.
  EXPECT_TRUE(merged.column_index("mag").has_value());
  EXPECT_TRUE(merged.column_index("asymmetry").has_value());
  EXPECT_TRUE(merged.column_index("concentration").has_value());
  EXPECT_GT(outcome->trace.valid, 0u);
  EXPECT_EQ(outcome->trace.valid + outcome->trace.invalid, merged.num_rows());
  EXPECT_GT(outcome->trace.polls, 0u);
  EXPECT_GT(outcome->trace.total_ms(), 0.0);
}

TEST_F(PortalFixture, CutoutArchiveOutageYieldsInvalidRowsNotFailure) {
  // §4.3.1 item 4 at the archive level: the cutout SIA metadata was already
  // merged into the catalog, then MAST's image endpoint goes down — and so
  // does its failover mirror (total outage). Every fetch fails; the request
  // must still complete, with all rows flagged invalid ("image
  // unavailable"), not error out.
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto catalog = portal.build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog.ok());
  auto with_refs = portal.attach_cutout_refs(std::move(catalog.value()), cluster);
  ASSERT_TRUE(with_refs.ok());

  ASSERT_TRUE(campaign_.fabric()
                  .set_up(services::Federation::kMastHost, "/cutout/image", false)
                  .ok());
  ASSERT_TRUE(campaign_.fabric()
                  .set_up(services::Federation::kMirrorHost, "/cutout/image", false)
                  .ok());
  MorphologyService& service = campaign_.compute_service();
  auto url = service.gal_morph_compute(with_refs.value(), cluster);
  ASSERT_TRUE(url.ok());
  auto poll = service.poll(*url);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, "completed");
  const ServiceTrace* trace = service.last_trace();
  EXPECT_EQ(trace->valid_results, 0u);
  EXPECT_EQ(trace->invalid_results, trace->galaxies);
  auto result = service.fetch_result(poll->result_url);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), with_refs->num_rows());
  for (std::size_t i = 0; i < result->num_rows(); ++i) {
    EXPECT_EQ(result->cell(i, "valid").as_bool().value_or(true), false);
  }
}

TEST_F(PortalFixture, ProvenanceRecordedForProducts) {
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto outcome = portal.run_analysis(cluster);
  ASSERT_TRUE(outcome.ok());

  const vds::ProvenanceCatalog& prov = campaign_.compute_service().provenance();
  const std::string out_lfn = output_votable_lfn(cluster);
  ASSERT_TRUE(prov.has(out_lfn));
  auto record = prov.lookup(out_lfn);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->transformation, "concatMorph_" + cluster);
  EXPECT_FALSE(record->site.empty());

  // The output's lineage reaches back through every galaxy's result to the
  // raw cutout images.
  const auto chain = prov.lineage(out_lfn);
  std::size_t fits_inputs = 0;
  for (const std::string& lfn : chain) {
    if (lfn.size() > 4 && lfn.substr(lfn.size() - 4) == ".fit") ++fits_inputs;
  }
  EXPECT_EQ(fits_inputs, outcome->trace.galaxies);

  // Invalidation: changing one cutout stales its result and the VOTable.
  const sim::GalaxyTruth& g = campaign_.universe().clusters().front().galaxies[0];
  const auto stale = prov.downstream_of(image_lfn(g.id));
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0], g.id + ".txt");
  EXPECT_EQ(stale[1], out_lfn);

  // A galMorph record carries the actual parameters.
  auto galaxy_record = prov.lookup(result_lfn(g.id));
  ASSERT_TRUE(galaxy_record.ok());
  EXPECT_EQ(galaxy_record->transformation, "galMorph");
  EXPECT_TRUE(galaxy_record->parameters.count("Ho"));
}

TEST_F(PortalFixture, DualArchiveOutageFailsWithDiagnosableOutcome) {
  // Both catalog archives down: the run must fail cleanly — a typed error
  // plus per-archive ArchiveStatus entries in the (partial) trace — rather
  // than crash on an unchecked Expected in a degraded-federation path.
  ASSERT_TRUE(campaign_.fabric()
                  .set_up(services::Federation::kIpacHost, "/ned/cone", false)
                  .ok());
  ASSERT_TRUE(campaign_.fabric()
                  .set_up(services::Federation::kCadcHost, "/cnoc/cone", false)
                  .ok());

  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto outcome = portal.run_analysis(cluster);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kServiceUnavailable);
  EXPECT_NE(outcome.error().to_string().find("all catalog archives"),
            std::string::npos);

  // The partial trace names both dead archives, with reasons.
  bool saw_ned = false, saw_cnoc = false;
  for (const ArchiveStatus& a : outcome.trace.archives) {
    if (a.archive == "NED") {
      saw_ned = true;
      EXPECT_TRUE(a.degraded());
      EXPECT_FALSE(a.skipped_reason.empty());
    }
    if (a.archive == "CNOC") {
      saw_cnoc = true;
      EXPECT_TRUE(a.degraded());
      EXPECT_FALSE(a.skipped_reason.empty());
    }
  }
  EXPECT_TRUE(saw_ned);
  EXPECT_TRUE(saw_cnoc);
  // The image-search stage before the catalog stage still ran and is
  // accounted in the same partial trace.
  EXPECT_GT(outcome.trace.image_search_ms, 0.0);
}

TEST_F(PortalFixture, ComputeProceedsWhenCnocIsDown) {
  // §4.3.1 item 3: caching means the service works "even when the image
  // services like MAST and CADC are down"; the portal also degrades
  // gracefully when one catalog service is down.
  ASSERT_TRUE(campaign_.fabric()
                  .set_up(services::Federation::kCadcHost, "/cnoc/cone", false)
                  .ok());
  Portal& portal = campaign_.portal();
  const std::string cluster = campaign_.universe().clusters().front().name();
  auto catalog = portal.build_galaxy_catalog(cluster);
  ASSERT_TRUE(catalog.ok()) << catalog.error().to_string();
  EXPECT_GT(catalog->num_rows(), 0u);          // NED alone suffices
  EXPECT_FALSE(catalog->column_index("g_r").has_value());  // CNOC columns absent
}

// ---------------------------------------------------------------------------
// the Fig. 5 stage machine and its two drivers
// ---------------------------------------------------------------------------

TEST_F(PortalFixture, SyncAndAsyncDriversDeliverTheSameCatalog) {
  // Two identically seeded stacks: one driven by Portal::run_analysis, one
  // by AsyncPortal's one-stage-per-step scheduler. Both advance the same
  // stage machine, so every deliverable must agree byte for byte.
  analysis::Campaign async_campaign(make_config());
  AsyncPortal async(async_campaign.fabric(), async_campaign.federation(),
                    async_campaign.compute_service());
  for (const sim::Cluster& c : async_campaign.universe().clusters()) {
    ClusterEntry entry;
    entry.name = c.name();
    entry.position = c.center();
    entry.redshift = c.redshift();
    entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
    async.add_cluster(entry);
  }
  async.add_tenant("alice");

  constexpr std::size_t kClusters = 3;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kClusters; ++i) {
    const Submission sub =
        async.submit("alice", async_campaign.universe().clusters()[i].name());
    ASSERT_TRUE(sub.admitted) << sub.reason;
    ids.push_back(sub.id);
  }
  async.drain();

  for (std::size_t i = 0; i < kClusters; ++i) {
    const std::string cluster = campaign_.universe().clusters()[i].name();
    auto sync = campaign_.portal().run_analysis(cluster);
    ASSERT_TRUE(sync.ok()) << cluster << ": " << sync.error().to_string();
    EXPECT_EQ(sync.trace.polls, 1u);
    EXPECT_GT(sync.catalog.num_rows(), 0u);

    const auto status = async.status(ids[i]);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, RequestState::kDone) << status->error;
    const votable::Table* async_catalog = async.result(ids[i]);
    ASSERT_NE(async_catalog, nullptr);
    EXPECT_EQ(votable::to_votable_xml(sync.catalog),
              votable::to_votable_xml(*async_catalog))
        << cluster;
    EXPECT_EQ(status->galaxies, sync.trace.galaxies);
    EXPECT_EQ(status->valid, sync.trace.valid);
    EXPECT_EQ(status->invalid, sync.trace.invalid);
  }
  // One Fig. 6 status poll per async derivation as well.
  const auto polls = async_campaign.fabric().metrics_for(
      async_campaign.compute_service().config().host, "/status");
  ASSERT_TRUE(polls.has_value());
  EXPECT_EQ(polls->requests, kClusters);
}

TEST_F(PortalFixture, CancelledComputeEndsTheRunCancelledAfterOnePoll) {
  Portal& portal = campaign_.portal();
  Portal::AnalysisRun run;
  run.cluster = run.out_name = campaign_.universe().clusters().front().name();
  while (run.stage != Portal::AnalysisRun::Stage::kCompute) {
    ASSERT_FALSE(run.finished()) << run.error().to_string();
    portal.advance(run);
  }

  services::RequestContext ctx;
  ctx.cancel.cancel("client withdrew");
  portal.advance(run, ctx);
  EXPECT_EQ(run.stage, Portal::AnalysisRun::Stage::kCancelled);
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(run.trace.polls, 1u);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, ErrorCode::kCancelled);

  // A terminal run is left alone.
  portal.advance(run);
  EXPECT_EQ(run.stage, Portal::AnalysisRun::Stage::kCancelled);
  EXPECT_EQ(run.trace.polls, 1u);
}

TEST_F(PortalFixture, SyncRunLayersSumToTheClockAdvance) {
  // Every portal duration is a delta of the one monotonic fabric clock. The
  // sync driver never advances that clock by the service's own sim
  // accounting, so the federation layers plus the fabric part of the
  // compute wait must account for the whole advance across the run.
  services::HttpFabric& fabric = campaign_.fabric();
  const std::string cluster = campaign_.universe().clusters().front().name();
  const double t0 = fabric.now_ms();
  auto outcome = campaign_.portal().run_analysis(cluster);
  const double advance = fabric.now_ms() - t0;
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  const ServiceTrace* st =
      campaign_.compute_service().trace(outcome.trace.compute_request_id);
  ASSERT_NE(st, nullptr);

  const PortalTrace& t = outcome.trace;
  const double layers = t.image_search_ms + t.catalog_build_ms + t.cutout_query_ms +
                        (t.compute_wait_ms - st->total_sim_seconds * 1000.0);
  EXPECT_GT(advance, 0.0);
  EXPECT_LE(std::abs(layers - advance), 1e-9 * advance)
      << "layers " << layers << " vs clock advance " << advance;
}

// ---------------------------------------------------------------------------
// Checkpoint journal decoding
// ---------------------------------------------------------------------------

// A checksum-valid journal record is still untrusted input. A `row` record
// whose concentration is not hex must be rejected and its galaxy recomputed:
// the resumed catalog is byte-identical to a fault-free run, never a row
// resumed with the field read as 0.0.
TEST(ComputeServiceJournal, MalformedRowRecordIsRecomputedNotResumed) {
  analysis::CampaignConfig config;
  config.population_scale = 0.05;
  const std::string cluster =
      analysis::Campaign(config).universe().clusters().front().name();
  auto reference = analysis::Campaign(config).run_cluster(cluster);
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();

  const std::string journal_path =
      testing::TempDir() + "nvo_portal_malformed_row.journal";
  std::remove(journal_path.c_str());
  config.journal_path = journal_path;
  {
    // Killed inside its DAG: every row is journaled, the catalog is not.
    analysis::CampaignConfig killed = config;
    killed.chaos.kill_after_nodes(1);
    ASSERT_FALSE(analysis::Campaign(killed).run_cluster(cluster).ok());
  }
  std::size_t rows = 0;
  {
    auto journal = grid::CheckpointJournal::open(journal_path);
    ASSERT_TRUE(journal.ok()) << journal.error().to_string();
    rows = (*journal)->count("row");
    std::string key;
    std::vector<std::string> fields;
    (*journal)->for_each("row", [&](const std::string& k, const std::string& payload) {
      std::vector<std::string> f = split(payload, ' ');
      if (key.empty() && f.size() == 18 && f[1] == "1") {
        key = k;
        fields = std::move(f);
      }
    });
    ASSERT_FALSE(key.empty()) << "no valid row was journaled";
    fields[7] = "zzzzzzzzzzzzzzzz";  // the concentration, C
    // A later record for the same key replaces the earlier one on load.
    ASSERT_TRUE((*journal)->append("row", key, join(fields, " ")).ok());
  }
  auto resumed = analysis::Campaign(config).run_cluster(cluster);
  std::remove(journal_path.c_str());
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_EQ(resumed->rows_resumed + 1, rows);
  EXPECT_EQ(resumed->catalog_xml, reference->catalog_xml);
}

}  // namespace
}  // namespace nvo::portal
