// Tests for the paper's named future-work features, implemented here: MDS
// dynamic resource discovery (§3.2) and provenance tracking (§3.3).
#include <gtest/gtest.h>

#include "grid/mds.hpp"
#include "pegasus/planner.hpp"
#include "vds/chimera.hpp"
#include "vds/provenance.hpp"

namespace nvo {
namespace {

// ---------------------------------------------------------------------------
// MDS
// ---------------------------------------------------------------------------

grid::ResourceInfo info(const char* site, int total, int busy, int queued,
                        double t = 0.0) {
  grid::ResourceInfo r;
  r.site = site;
  r.total_slots = total;
  r.busy_slots = busy;
  r.queued_jobs = queued;
  r.timestamp_s = t;
  return r;
}

TEST(Mds, PublishQueryFreshness) {
  grid::Mds mds(100.0);
  mds.publish(info("isi", 6, 2, 0, 0.0));
  ASSERT_TRUE(mds.query("isi", 50.0).has_value());
  EXPECT_EQ(mds.query("isi", 50.0)->free_slots(), 4);
  // Stale after the TTL.
  EXPECT_FALSE(mds.query("isi", 150.0).has_value());
  // Re-publication refreshes.
  mds.publish(info("isi", 6, 5, 3, 140.0));
  ASSERT_TRUE(mds.query("isi", 150.0).has_value());
  EXPECT_EQ(mds.query("isi", 150.0)->busy_slots, 5);
}

TEST(Mds, SnapshotDerivesFromGrid) {
  const grid::Grid g = grid::make_paper_grid();
  const auto records =
      grid::Mds::snapshot(g, {{"isi", 3}}, {{"uwisc", 7}}, 42.0);
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) {
    EXPECT_DOUBLE_EQ(r.timestamp_s, 42.0);
    if (r.site == "isi") EXPECT_EQ(r.busy_slots, 3);
    if (r.site == "uwisc") EXPECT_EQ(r.queued_jobs, 7);
  }
}

TEST(Mds, PlannerMdsRankAvoidsLoadedSite) {
  // Two sites, equal slots; MDS says one is saturated.
  grid::Grid g;
  (void)g.add_site({"a", 8, 1.0, 10.0, 100.0});
  (void)g.add_site({"b", 8, 1.0, 10.0, 100.0});
  grid::Mds mds;
  mds.publish(info("a", 8, 8, 20, 0.0));  // slammed
  mds.publish(info("b", 8, 0, 0, 0.0));   // idle

  vds::VirtualDataCatalog vdc;
  vds::Transformation tr;
  tr.name = "t";
  tr.args = {{"input", vds::Direction::kIn}, {"output", vds::Direction::kOut}};
  (void)vdc.define_transformation(tr);
  std::vector<std::string> requests;
  for (int i = 0; i < 8; ++i) {
    vds::Derivation d;
    d.name = "d" + std::to_string(i);
    d.transformation = "t";
    d.bindings["input"] = vds::ActualArg{true, "raw", vds::Direction::kIn};
    d.bindings["output"] =
        vds::ActualArg{true, "o" + std::to_string(i), vds::Direction::kOut};
    (void)vdc.define_derivation(d);
    requests.push_back("o" + std::to_string(i));
  }
  const vds::Dag abstract = vds::compose_abstract_workflow(vdc, requests).value();

  pegasus::ReplicaLocationService rls;
  rls.add("raw", "a", "p");
  pegasus::TransformationCatalog tc;
  (void)tc.add({"t", "a", "/t", {}});
  (void)tc.add({"t", "b", "/t", {}});
  pegasus::PlannerConfig config;
  config.site_policy = pegasus::SitePolicy::kMdsRank;
  config.stage_out = false;
  config.register_outputs = false;
  pegasus::Planner planner(g, rls, tc, config, 1);
  planner.use_mds(&mds, 1.0);
  auto plan = planner.plan(abstract);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  int at_b = 0;
  for (const std::string& id : plan->concrete.node_ids()) {
    const vds::DagNode* n = plan->concrete.node(id);
    if (n->type == vds::JobType::kCompute && n->site == "b") ++at_b;
  }
  // The idle site must take the large majority.
  EXPECT_GE(at_b, 7);
}

TEST(Mds, PlannerFallsBackWhenAllStale) {
  grid::Grid g;
  (void)g.add_site({"a", 8, 1.0, 10.0, 100.0});
  grid::Mds mds(10.0);
  mds.publish(info("a", 8, 0, 0, 0.0));

  vds::VirtualDataCatalog vdc;
  vds::Transformation tr;
  tr.name = "t";
  tr.args = {{"input", vds::Direction::kIn}, {"output", vds::Direction::kOut}};
  (void)vdc.define_transformation(tr);
  vds::Derivation d;
  d.name = "d0";
  d.transformation = "t";
  d.bindings["input"] = vds::ActualArg{true, "raw", vds::Direction::kIn};
  d.bindings["output"] = vds::ActualArg{true, "o", vds::Direction::kOut};
  (void)vdc.define_derivation(d);
  const vds::Dag abstract = vds::compose_abstract_workflow(vdc, {"o"}).value();
  pegasus::ReplicaLocationService rls;
  rls.add("raw", "a", "p");
  pegasus::TransformationCatalog tc;
  (void)tc.add({"t", "a", "/t", {}});
  pegasus::PlannerConfig config;
  config.site_policy = pegasus::SitePolicy::kMdsRank;
  pegasus::Planner planner(g, rls, tc, config, 1);
  planner.use_mds(&mds, 1000.0);  // record long stale
  auto plan = planner.plan(abstract);
  ASSERT_TRUE(plan.ok());  // degrades to least-loaded instead of failing
  EXPECT_EQ(plan->concrete.node("d0")->site, "a");
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

vds::ProvenanceRecord prov(const char* lfn, const char* dv,
                           std::vector<std::string> inputs) {
  vds::ProvenanceRecord r;
  r.lfn = lfn;
  r.derivation = dv;
  r.transformation = "t";
  r.inputs = std::move(inputs);
  r.site = "isi";
  return r;
}

TEST(Provenance, RecordAndLookup) {
  vds::ProvenanceCatalog cat;
  cat.record(prov("b", "d1", {"a"}));
  EXPECT_TRUE(cat.has("b"));
  EXPECT_FALSE(cat.has("a"));
  auto r = cat.lookup("b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->derivation, "d1");
  EXPECT_FALSE(cat.lookup("zz").ok());
}

TEST(Provenance, LineageAncestorsFirst) {
  vds::ProvenanceCatalog cat;
  cat.record(prov("b", "d1", {"a"}));
  cat.record(prov("c", "d2", {"b"}));
  cat.record(prov("final", "d3", {"c", "other_raw"}));
  const auto chain = cat.lineage("final");
  // Contains a, b, c, other_raw; a before b before c.
  ASSERT_EQ(chain.size(), 4u);
  const auto pos = [&](const std::string& s) {
    return std::find(chain.begin(), chain.end(), s) - chain.begin();
  };
  EXPECT_LT(pos("a"), pos("b"));
  EXPECT_LT(pos("b"), pos("c"));
  const std::string text = cat.lineage_text("final");
  EXPECT_NE(text.find("a (raw input)"), std::string::npos);
  EXPECT_NE(text.find("d3/t"), std::string::npos);
}

TEST(Provenance, DownstreamInvalidation) {
  vds::ProvenanceCatalog cat;
  cat.record(prov("b", "d1", {"a"}));
  cat.record(prov("c", "d2", {"b"}));
  cat.record(prov("d", "d3", {"b"}));
  cat.record(prov("e", "d4", {"c", "d"}));
  const auto stale = cat.downstream_of("a");
  EXPECT_EQ(stale, (std::vector<std::string>{"b", "c", "d", "e"}));
  EXPECT_EQ(cat.downstream_of("c"), std::vector<std::string>{"e"});
  EXPECT_TRUE(cat.downstream_of("e").empty());
}

TEST(Provenance, RederivationReplacesEdges) {
  vds::ProvenanceCatalog cat;
  cat.record(prov("b", "d1", {"a"}));
  // b re-derived from a different input.
  cat.record(prov("b", "d1_v2", {"a2"}));
  EXPECT_TRUE(cat.downstream_of("a").empty());
  EXPECT_EQ(cat.downstream_of("a2"), std::vector<std::string>{"b"});
  EXPECT_EQ(cat.lookup("b")->derivation, "d1_v2");
}

TEST(Provenance, RecordExecutionFromDag) {
  vds::Dag dag;
  vds::DagNode n;
  n.id = "m_G1";
  n.type = vds::JobType::kCompute;
  n.transformation = "galMorph";
  n.inputs = {"G1.fit"};
  n.outputs = {"G1.txt"};
  n.args = {{"redshift", "0.1"}};
  n.site = "uwisc";
  (void)dag.add_node(n);
  vds::DagNode tx;
  tx.id = "tx_1";
  tx.type = vds::JobType::kTransfer;
  (void)dag.add_node(tx);

  vds::ProvenanceCatalog cat;
  cat.record_execution(dag, {"m_G1", "tx_1"}, 99.0);
  EXPECT_EQ(cat.size(), 1u);  // transfers leave no product provenance
  auto r = cat.lookup("G1.txt");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->site, "uwisc");
  EXPECT_EQ(r->parameters.at("redshift"), "0.1");
  EXPECT_DOUBLE_EQ(r->completed_at_s, 99.0);
}

}  // namespace
}  // namespace nvo
