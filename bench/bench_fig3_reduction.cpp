// F3 — Paper Figure 3: the reduced abstract workflow ("if the intermediate
// file b exists at some location identified by the RLS, then the workflow
// will be reduced"). Regenerates the reduction benefit as a function of
// replica coverage: the fraction of intermediate products already
// materialized, swept 0% -> 100%, reporting pruned jobs, concrete workflow
// size, and executed makespan — the virtual-data reuse payoff that is
// Pegasus's distinguishing feature (§3.3). Claims: as coverage grows the
// pruned count never falls and the makespan never rises, and at 100 %
// coverage one job (the concat) remains.
#include <cstdio>

#include "common/rng.hpp"
#include "grid/dagman.hpp"
#include "pegasus/planner.hpp"
#include "shape_claims.hpp"
#include "vds/chimera.hpp"

namespace {

using namespace nvo;

/// Two-stage galMorph-like workflow: N (cutout -> result) jobs + concat, so
/// intermediate coverage maps directly to per-galaxy products already
/// computed by earlier users — the paper's core reuse scenario.
struct Workload {
  vds::VirtualDataCatalog vdc;
  std::vector<std::string> intermediates;
  std::string request = "final.vot";

  explicit Workload(int n) {
    vds::Transformation leaf;
    leaf.name = "galMorph";
    leaf.args = {{"image", vds::Direction::kIn}, {"galMorph", vds::Direction::kOut}};
    (void)vdc.define_transformation(leaf);
    vds::Transformation concat;
    concat.name = "concat";
    for (int i = 0; i < n; ++i) {
      concat.args.push_back({"r" + std::to_string(i), vds::Direction::kIn});
    }
    concat.args.push_back({"out", vds::Direction::kOut});
    (void)vdc.define_transformation(concat);
    vds::Derivation dc;
    dc.name = "concat_all";
    dc.transformation = "concat";
    for (int i = 0; i < n; ++i) {
      const std::string img = "g" + std::to_string(i) + ".fit";
      const std::string res = "g" + std::to_string(i) + ".txt";
      vds::Derivation d;
      d.name = "m" + std::to_string(i);
      d.transformation = "galMorph";
      d.bindings["image"] = vds::ActualArg{true, img, vds::Direction::kIn};
      d.bindings["galMorph"] = vds::ActualArg{true, res, vds::Direction::kOut};
      (void)vdc.define_derivation(d);
      dc.bindings["r" + std::to_string(i)] =
          vds::ActualArg{true, res, vds::Direction::kIn};
      intermediates.push_back(res);
    }
    dc.bindings["out"] = vds::ActualArg{true, request, vds::Direction::kOut};
    (void)vdc.define_derivation(dc);
  }
};

struct Env {
  grid::Grid grid = grid::make_paper_grid();
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;

  Env(const Workload& w, double coverage, std::uint64_t seed) {
    for (const std::string& site : grid.site_names()) {
      (void)tc.add({"galMorph", site, "/g", {}});
      (void)tc.add({"concat", site, "/c", {}});
    }
    Rng rng(seed);
    for (int i = 0; i < static_cast<int>(w.intermediates.size()); ++i) {
      const std::string img = "g" + std::to_string(i) + ".fit";
      rls.add(img, "isi", "p");
      grid.put_file("isi", img, 22160);
      if (rng.bernoulli(coverage)) {
        rls.add(w.intermediates[static_cast<std::size_t>(i)], "uwisc", "p");
        grid.put_file("uwisc", w.intermediates[static_cast<std::size_t>(i)], 2048);
      }
    }
  }
};

int run_figure3() {
  bench::ShapeClaims claims;
  std::printf("=== Figure 3: abstract-workflow reduction vs replica coverage ===\n");
  const int n = 152;
  Workload w(n);
  const vds::Dag abstract =
      vds::compose_abstract_workflow(w.vdc, {w.request}).value();
  std::printf("abstract workflow: %zu compute jobs (cluster of %d galaxies)\n",
              abstract.num_nodes(), n);
  std::printf("%10s | %8s %10s | %10s %10s | %16s\n", "coverage", "pruned",
              "remaining", "transfers", "dag nodes", "makespan(sim s)");
  std::size_t previous_pruned = 0;
  double previous_makespan = 0.0;
  for (double coverage : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const std::string label = std::to_string(static_cast<int>(coverage * 100)) +
                              "% coverage";
    Env env(w, coverage, 7);
    pegasus::Planner planner(env.grid, env.rls, env.tc, pegasus::PlannerConfig{}, 3);
    auto plan = planner.plan(abstract);
    if (!plan.ok()) {
      claims.check(false, label + " plans: " + plan.error().to_string());
      return claims.exit_code();
    }
    grid::DagManSim dagman(env.grid, grid::JobCostModel{}, grid::FailureModel{}, 5);
    auto report = dagman.run(plan->concrete);
    std::printf("%9.0f%% | %8zu %10zu | %10zu %10zu | %16.1f\n", coverage * 100,
                plan->pruned_jobs, plan->compute_nodes, plan->transfer_nodes,
                plan->concrete.num_nodes(), report->makespan_seconds);
    if (coverage > 0.0) {
      claims.check(plan->pruned_jobs >= previous_pruned,
                   label + ": pruned never falls");
      claims.check(report->makespan_seconds <= previous_makespan,
                   label + ": makespan never rises");
    }
    previous_pruned = plan->pruned_jobs;
    previous_makespan = report->makespan_seconds;
    if (coverage == 1.0) {
      claims.check(plan->compute_nodes == 1, label + ": one job remains");
    }
  }
  std::printf("(paper claim: reuse of materialized intermediates shrinks the "
              "workflow; at 100%% only the concat runs)\n");
  return claims.exit_code();
}

}  // namespace

int main() { return run_figure3(); }
