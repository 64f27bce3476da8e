// Tests for the deeper grid/sky substrate features: DAGMan rescue DAGs and
// the cone-search spatial index.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "grid/rescue.hpp"
#include "sky/spatial_index.hpp"

namespace nvo {
namespace {

// ---------------------------------------------------------------------------
// Rescue DAGs
// ---------------------------------------------------------------------------

vds::Dag chain(int n, const std::string& site) {
  vds::Dag dag;
  for (int i = 0; i < n; ++i) {
    vds::DagNode node;
    node.id = "j" + std::to_string(i);
    node.type = vds::JobType::kCompute;
    node.site = site;
    (void)dag.add_node(node);
    if (i > 0) (void)dag.add_edge("j" + std::to_string(i - 1), node.id);
  }
  return dag;
}

TEST(Rescue, RescueDagContainsUnfinishedOnly) {
  grid::Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  grid::FailureModel failure;
  failure.max_retries = 0;
  failure.permanent_failures.insert("j2");
  grid::DagManSim dagman(g, grid::JobCostModel{}, failure);
  const vds::Dag dag = chain(5, "s");
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->workflow_succeeded);

  auto rescue = grid::make_rescue_dag(dag, report.value());
  ASSERT_TRUE(rescue.ok());
  EXPECT_EQ(rescue->num_nodes(), 3u);  // j2 (failed), j3, j4 (skipped)
  EXPECT_FALSE(rescue->has_node("j0"));
  EXPECT_TRUE(rescue->has_node("j2"));
  // Edge j2 -> j3 preserved; j1 -> j2 gone (j1 succeeded).
  EXPECT_EQ(rescue->parents("j2").size(), 0u);
  EXPECT_EQ(rescue->children("j2"), std::vector<std::string>{"j3"});
}

TEST(Rescue, RunWithRescueRecoversTransientFailures) {
  grid::Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  grid::FailureModel failure;
  failure.compute_failure_rate = 0.3;
  failure.max_retries = 0;  // no in-run retries: rescue rounds must recover
  grid::DagManSim dagman(g, grid::JobCostModel{}, failure, 17);
  auto outcome = grid::run_with_rescue(dagman, chain(20, "s"), 20);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->fully_succeeded);
  EXPECT_GT(outcome->rounds, 1u);
  EXPECT_EQ(outcome->final_report.jobs_succeeded, 20u);
}

TEST(Rescue, PermanentFailureStopsAtMaxRounds) {
  grid::Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  grid::FailureModel failure;
  failure.max_retries = 0;
  failure.permanent_failures.insert("j1");
  grid::DagManSim dagman(g, grid::JobCostModel{}, failure);
  auto outcome = grid::run_with_rescue(dagman, chain(4, "s"), 3);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->fully_succeeded);
  EXPECT_EQ(outcome->rounds, 3u);
  EXPECT_EQ(outcome->final_report.jobs_succeeded, 1u);  // j0 only
  EXPECT_EQ(outcome->final_report.jobs_failed, 1u);     // j1, every round
  EXPECT_EQ(outcome->final_report.jobs_skipped, 2u);
}

TEST(Rescue, CleanRunNeedsOneRound) {
  grid::Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  grid::DagManSim dagman(g, grid::JobCostModel{}, grid::FailureModel{});
  auto outcome = grid::run_with_rescue(dagman, chain(5, "s"), 3);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->fully_succeeded);
  EXPECT_EQ(outcome->rounds, 1u);
}

// ---------------------------------------------------------------------------
// SpatialIndex
// ---------------------------------------------------------------------------

std::vector<sky::Equatorial> random_sky(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sky::Equatorial> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Uniform on the sphere: dec from asin(u).
    const double dec = std::asin(rng.uniform(-1.0, 1.0)) * sky::kRadToDeg;
    out.push_back({rng.uniform(0.0, 360.0), dec});
  }
  return out;
}

TEST(SpatialIndex, MatchesBruteForce) {
  const auto positions = random_sky(3000, 9);
  const sky::SpatialIndex index(positions);
  Rng rng(10);
  for (int trial = 0; trial < 30; ++trial) {
    const sky::Equatorial center{rng.uniform(0.0, 360.0),
                                 std::asin(rng.uniform(-1.0, 1.0)) * sky::kRadToDeg};
    const double radius = rng.uniform(0.1, 15.0);
    const auto got = index.query_cone(center, radius);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (sky::angular_separation_deg(center, positions[i]) <= radius) {
        expected.push_back(i);
      }
    }
    ASSERT_EQ(got, expected) << "trial " << trial << " center "
                             << center.to_string() << " r " << radius;
  }
}

TEST(SpatialIndex, RaWrapHandled) {
  std::vector<sky::Equatorial> positions{{359.9, 0.0}, {0.1, 0.0}, {180.0, 0.0}};
  const sky::SpatialIndex index(positions);
  const auto hits = index.query_cone({0.0, 0.0}, 0.5);
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1}));
}

TEST(SpatialIndex, PolarConesCoverAllRa) {
  std::vector<sky::Equatorial> positions{{10.0, 89.5}, {200.0, 89.4}, {0.0, 0.0}};
  const sky::SpatialIndex index(positions);
  const auto hits = index.query_cone({120.0, 90.0}, 1.0);
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1}));
}

TEST(SpatialIndex, NearestWithinRadius) {
  const auto positions = random_sky(500, 11);
  const sky::SpatialIndex index(positions);
  const sky::Equatorial probe{123.0, -12.0};
  const std::size_t got = index.nearest(probe, 30.0);
  ASSERT_NE(got, sky::SpatialIndex::npos);
  // Brute-force nearest.
  std::size_t expected = 0;
  double best = 1e300;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double sep = sky::angular_separation_deg(probe, positions[i]);
    if (sep < best) {
      best = sep;
      expected = i;
    }
  }
  EXPECT_EQ(got, expected);
  // Impossible radius.
  EXPECT_EQ(index.nearest(probe, 1e-6), sky::SpatialIndex::npos);
}

TEST(SpatialIndex, PrefilterIsSelective) {
  const auto positions = random_sky(20000, 13);
  const sky::SpatialIndex index(positions, 360);
  (void)index.query_cone({180.0, 0.0}, 1.0);
  // A 1-degree cone should consider far fewer than all 20000 points.
  EXPECT_LT(index.last_candidates(), 500u);
}

TEST(SpatialIndex, EmptyAndDegenerate) {
  const sky::SpatialIndex empty({});
  EXPECT_TRUE(empty.query_cone({0, 0}, 10).empty());
  EXPECT_EQ(empty.nearest({0, 0}, 10), sky::SpatialIndex::npos);
  const sky::SpatialIndex one({{10.0, 10.0}});
  EXPECT_EQ(one.query_cone({10.0, 10.0}, 0.01).size(), 1u);
  EXPECT_TRUE(one.query_cone({10.0, 10.0}, -1.0).empty());
}

}  // namespace
}  // namespace nvo
