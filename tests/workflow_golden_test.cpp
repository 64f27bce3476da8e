// Golden pins for the control plane: the concrete DAG Pegasus builds and the
// RunReport DAGMan returns, digested field by field. Every node's id, type,
// transformation, site, source site, file, executable, inputs, outputs, args,
// and its parents and children in order go into the DAG digest; every node
// result's id, site, attempts, outcome and start/end bits, plus the run-level
// counters and the makespan bits, go into the report digest. A change to the
// planner's node order, tx_N numbering, RNG draw order, replica choice, the
// executor's dispatch or steal order, or rescue re-mapping moves a digest.
//
// Covered: all 8 clusters of the paper campaign (seed 61, default random
// site policy), a pool outage recovered by rescue rounds, and the multi-pool
// scenarios of bench_multipool (random mapping over a seed fan, the other
// site policies, work stealing, and stealing with retried failures).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "grid/dagman.hpp"
#include "grid/grid.hpp"
#include "grid/rescue.hpp"
#include "pegasus/planner.hpp"
#include "pegasus/rls.hpp"
#include "pegasus/tc.hpp"
#include "vds/chimera.hpp"
#include "vds/dag.hpp"

namespace nvo {
namespace {

/// 64-bit FNV-1a, spelled out here so the pin depends on nothing in src/.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // field separator: ("ab","c") and ("a","bc") differ
    h *= 0x100000001b3ull;
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
    add(std::string(buf));
  }
  void add(std::size_t v) { add(std::to_string(v)); }
  void add_list(const std::vector<std::string>& v) {
    add(v.size());
    for (const std::string& s : v) add(s);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t dag_digest(const vds::Dag& dag) {
  Fnv1a d;
  d.add(dag.num_nodes());
  d.add(dag.num_edges());
  for (const std::string& id : dag.node_ids()) {
    const vds::DagNode* n = dag.node(id);
    d.add(n->id);
    d.add(std::string(vds::to_string(n->type)));
    d.add(n->transformation);
    d.add(n->site);
    d.add(n->source_site);
    d.add(n->file);
    d.add(n->executable);
    d.add_list(n->inputs);
    d.add_list(n->outputs);
    d.add(n->args.size());
    for (const auto& [key, value] : n->args) {
      d.add(key);
      d.add(value);
    }
    d.add_list(dag.parents(id));
    d.add_list(dag.children(id));
  }
  return d.h;
}

std::uint64_t plan_digest(const pegasus::PlanResult& plan) {
  Fnv1a d;
  d.add(dag_digest(plan.concrete));
  d.add(plan.abstract_jobs);
  d.add(plan.pruned_jobs);
  d.add(plan.compute_nodes);
  d.add(plan.transfer_nodes);
  d.add(plan.register_nodes);
  d.add_list(plan.reused_outputs);
  for (const auto& [node, inputs] : plan.data_inputs) {
    d.add(node);
    d.add_list(inputs);
  }
  return d.h;
}

std::uint64_t report_digest(const grid::RunReport& r) {
  Fnv1a d;
  d.add(std::string(r.workflow_succeeded ? "ok" : "partial"));
  d.add(r.makespan_seconds);
  for (const std::size_t v :
       {r.jobs_total, r.jobs_succeeded, r.jobs_failed, r.jobs_skipped, r.compute_jobs,
        r.transfer_jobs, r.register_jobs, r.retries, r.stolen_jobs, r.wan_bytes,
        r.jobs_expired}) {
    d.add(v);
  }
  d.add_list(r.sites_lost);
  for (const auto& [site, busy] : r.site_busy_seconds) {
    d.add(site);
    d.add(busy);
  }
  for (const grid::NodeResult& n : r.nodes) {
    d.add(n.id);
    d.add(n.site);
    d.add(static_cast<std::size_t>(n.attempts));
    d.add(static_cast<std::size_t>(n.outcome));
    d.add(n.start_seconds);
    d.add(n.end_seconds);
  }
  return d.h;
}

struct Pinned {
  std::uint64_t plan;
  std::uint64_t report;
};

void expect_pinned(const std::string& what, const pegasus::PlanResult& plan,
                   const grid::RunReport& report, const Pinned& pin) {
  const std::uint64_t p = plan_digest(plan);
  const std::uint64_t r = report_digest(report);
  EXPECT_EQ(p, pin.plan) << what << ": concrete DAG digest " << hex(p);
  EXPECT_EQ(r, pin.report) << what << ": run report digest " << hex(r);
}

// ---------------------------------------------------------------------------
// The paper campaign: 8 clusters, seed 61, default (random) site policy
// ---------------------------------------------------------------------------

TEST(WorkflowGolden, PaperCampaignConcreteDagsAndRunReports) {
  const std::vector<std::pair<std::string, Pinned>> kPinned = {
      {"MS0906", {0xb8bd21ffd4302f47ull, 0xd4d1f0162e2d726aull}},
      {"A2390", {0x1edd1cf59b9f5f55ull, 0x42446f917d1968a2ull}},
      {"MS1455", {0x123bc97b118c1bb4ull, 0xb8076ecbec75fa69ull}},
      {"A2029", {0x976b63c32e6de10full, 0x979fb4ef82506ac5ull}},
      {"MS1224", {0xb07edb412a336e69ull, 0xa1bc0316cf0c13e2ull}},
      {"A1689", {0xf95a68107f9b34a9ull, 0xc2ed89ecca5eedcaull}},
      {"MS1358", {0x6de5975ff870ed49ull, 0x40511aed22d27fc1ull}},
      {"MS1621", {0xff11ef096bdd8143ull, 0x042445f2a34e8712ull}},
  };
  analysis::CampaignConfig config;
  config.seed = 61;
  analysis::Campaign campaign(config);
  const auto& clusters = campaign.universe().clusters();
  ASSERT_EQ(clusters.size(), kPinned.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const std::string& name = clusters[i].name();
    auto outcome = campaign.run_cluster(name);
    ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.error().to_string();
    const portal::ServiceTrace* trace = campaign.compute_service().last_trace();
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(name, kPinned[i].first);
    expect_pinned(name, trace->plan, trace->execution, kPinned[i].second);
  }
}

// A pool lost mid-DAG and recovered by rescue rounds: pins the rescue DAG,
// the re-mapping off the dead pool and the merged report.
TEST(WorkflowGolden, PoolOutageRescueRounds) {
  analysis::CampaignConfig config;
  config.seed = 61;
  config.population_scale = 0.1;
  config.site_policy = pegasus::SitePolicy::kLeastLoaded;
  config.chaos.site_outage("fermilab", 1.0);
  config.rescue_rounds = 3;
  analysis::Campaign campaign(config);
  const std::string name = campaign.universe().clusters().front().name();
  auto outcome = campaign.run_cluster(name);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  const portal::ServiceTrace* trace = campaign.compute_service().last_trace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->execution.sites_lost.size(), 1u);
  expect_pinned(name + " outage", trace->plan, trace->execution,
                Pinned{0x6ebff51911b01dbdull, 0xbc5bf15c04c81b71ull});
}

// ---------------------------------------------------------------------------
// bench_multipool's scenarios: 120 single-input jobs on the linked paper grid
// ---------------------------------------------------------------------------

constexpr int kJobs = 120;

struct MultiPoolRun {
  pegasus::PlanResult plan;
  grid::RunReport report;
  /// Chained digest of every rescue round's DAG and report (0 without one).
  std::uint64_t rescue = 0;
};

/// Plans and runs bench_multipool's workflow. With `outage_at_s` > 0,
/// fermilab drops out at that simulated second and up to three rescue rounds
/// re-map the unfinished portion onto the surviving pools.
MultiPoolRun run_multipool(pegasus::SitePolicy policy, std::uint64_t seed, bool spread,
                           bool stealing, std::size_t file_bytes, double compute_s,
                           double failure_rate = 0.0, double outage_at_s = 0.0) {
  grid::Grid g = grid::make_paper_grid();
  g.set_link("isi", "uwisc", 20.0, 622.0);
  g.set_link("isi", "fermilab", 30.0, 155.0);
  g.set_link("uwisc", "fermilab", 60.0, 45.0);
  const std::vector<std::string> sites = g.site_names();
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;
  for (const std::string& site : sites) (void)tc.add({"t", site, "/t", {}});
  vds::VirtualDataCatalog vdc;
  vds::Transformation tr;
  tr.name = "t";
  tr.args = {{"input", vds::Direction::kIn}, {"output", vds::Direction::kOut}};
  EXPECT_TRUE(vdc.define_transformation(tr).ok());
  std::vector<std::string> outputs;
  for (int i = 0; i < kJobs; ++i) {
    const std::string lfn = "img" + std::to_string(i) + ".fit";
    const std::string& home =
        spread ? sites[static_cast<std::size_t>(i) % sites.size()] : "fermilab";
    rls.add(lfn, home, "gsiftp://" + home + "/" + lfn);
    g.put_file(home, lfn, file_bytes);
    vds::Derivation dv;
    dv.name = "d" + std::to_string(i);
    dv.transformation = "t";
    dv.bindings["input"] = vds::ActualArg{true, lfn, vds::Direction::kIn};
    dv.bindings["output"] =
        vds::ActualArg{true, "o" + std::to_string(i), vds::Direction::kOut};
    EXPECT_TRUE(vdc.define_derivation(dv).ok());
    outputs.push_back("o" + std::to_string(i));
  }
  auto abstract = vds::compose_abstract_workflow(vdc, outputs);
  EXPECT_TRUE(abstract.ok());
  pegasus::PlannerConfig config;
  config.site_policy = policy;
  config.replica_policy = pegasus::ReplicaPolicy::kNearest;
  config.stage_out = false;
  config.register_outputs = false;
  if (!spread) config.locality_load_weight = 0.0;
  pegasus::Planner planner(g, rls, tc, config, seed);
  auto plan = planner.plan(abstract.value());
  EXPECT_TRUE(plan.ok());
  grid::JobCostModel cost;
  cost.compute_reference_seconds = compute_s;
  grid::FailureModel failure;
  failure.compute_failure_rate = failure_rate;
  failure.transfer_failure_rate = failure_rate;
  if (outage_at_s > 0.0) failure.site_outage_at_s["fermilab"] = outage_at_s;
  grid::DagManSim dagman(g, cost, failure, seed);
  dagman.set_work_stealing(stealing);
  auto report = dagman.run(plan->concrete);
  EXPECT_TRUE(report.ok());
  MultiPoolRun out{std::move(plan.value()), std::move(report.value())};
  if (outage_at_s <= 0.0) return out;
  Fnv1a rescue;
  vds::Dag current = out.plan.concrete;
  grid::RunReport last = out.report;
  for (int round = 0; round < 3 && !last.workflow_succeeded; ++round) {
    auto next = grid::make_rescue_dag(current, last);
    EXPECT_TRUE(next.ok());
    auto remap = pegasus::remap_rescue_sites(next.value(), g, dagman.dead_sites(), tc,
                                             rls, "isi");
    EXPECT_TRUE(remap.ok());
    rescue.add(remap->compute_remapped);
    rescue.add(remap->transfers_retargeted);
    rescue.add(remap->inputs_restaged);
    rescue.add(dag_digest(next.value()));
    auto rerun = dagman.run(next.value());
    EXPECT_TRUE(rerun.ok());
    rescue.add(report_digest(rerun.value()));
    current = std::move(next.value());
    last = std::move(rerun.value());
  }
  EXPECT_TRUE(last.workflow_succeeded);
  out.rescue = rescue.h;
  return out;
}

TEST(WorkflowGolden, MultiPoolRandomSeedFan) {
  const std::vector<Pinned> kPinned = {
      {0xb4936a0b6fde38f7ull, 0x6e90d1d038648700ull},
      {0x22dd39b222793817ull, 0xbcbb234f7c0abea3ull},
      {0x82cb7e129864b943ull, 0x07ae9129c0ee013full},
      {0xeac83a5f768c06a8ull, 0xa42462594491f372ull},
      {0x3027eed695c477d4ull, 0xcbce2310f41021b0ull},
  };
  for (std::uint64_t t = 0; t < kPinned.size(); ++t) {
    const MultiPoolRun run = run_multipool(pegasus::SitePolicy::kRandom, 100 + t, true,
                                           false, 500ull * 1000 * 1000, 10.0);
    expect_pinned("random seed " + std::to_string(100 + t), run.plan, run.report,
                  kPinned[t]);
  }
}

TEST(WorkflowGolden, MultiPoolOtherSitePolicies) {
  const std::vector<std::pair<pegasus::SitePolicy, Pinned>> kPinned = {
      {pegasus::SitePolicy::kLeastLoaded, {0x9b74c6cd561a8f3dull, 0x6e39a328c9287f12ull}},
      {pegasus::SitePolicy::kDataLocality, {0xd3b161e22ad80f4bull, 0x6016dee506425330ull}},
  };
  for (const auto& [policy, pin] : kPinned) {
    const MultiPoolRun run =
        run_multipool(policy, 100, true, false, 500ull * 1000 * 1000, 10.0);
    expect_pinned("policy " + std::to_string(static_cast<int>(policy)), run.plan,
                  run.report, pin);
  }
}

TEST(WorkflowGolden, MultiPoolWorkStealing) {
  constexpr std::size_t kSmallBytes = 10ull * 1000 * 1000;
  const MultiPoolRun steal = run_multipool(pegasus::SitePolicy::kDataLocality, 100,
                                           false, true, kSmallBytes, 60.0);
  EXPECT_GT(steal.report.stolen_jobs, 0u);
  expect_pinned("stealing", steal.plan, steal.report,
                Pinned{0xaf19c9582f47bc45ull, 0x995f47fbeb7ce93dull});
  // Retried failures on top: pins the per-(node, attempt) draws and the
  // retry path's WAN and busy-time billing under stealing.
  const MultiPoolRun flaky = run_multipool(pegasus::SitePolicy::kDataLocality, 100,
                                           false, true, kSmallBytes, 60.0, 0.2);
  EXPECT_GT(flaky.report.retries, 0u);
  expect_pinned("stealing with failures", flaky.plan, flaky.report,
                Pinned{0xaf19c9582f47bc45ull, 0x72f82de3a4370f54ull});
}

TEST(WorkflowGolden, MultiPoolOutageRescueDags) {
  // fermilab dies mid-run with its queue full: the rescue DAG, its re-mapped
  // sites and re-staged inputs, and each round's report are pinned.
  const MultiPoolRun run = run_multipool(pegasus::SitePolicy::kRandom, 100, true, false,
                                         500ull * 1000 * 1000, 10.0, 0.1, 15.0);
  ASSERT_EQ(run.report.sites_lost.size(), 1u);
  EXPECT_NE(run.rescue, 0u);
  expect_pinned("outage", run.plan, run.report,
                Pinned{0xb4936a0b6fde38f7ull, 0x5e0ff59a36a8f7a6ull});
  EXPECT_EQ(run.rescue, 0xc24f36aa084500a4ull) << "rescue digest " << hex(run.rescue);
}

}  // namespace
}  // namespace nvo
