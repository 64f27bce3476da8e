// A1 — Ablation: Pegasus's reuse assumption. "It prunes the workflow based
// on the assumption that it is always more costly to compute the data
// product than to fetch it from an existing location" (§3.3). That is only
// true when compute time exceeds transfer time; this ablation sweeps the
// compute-cost / transfer-cost ratio and locates the crossover where the
// assumption breaks — i.e. where blind reuse would be slower than
// recomputation. Claims: recompute wins at (0.5 s/job, 16 MB) and reuse wins
// at (60 s/job, 1 MB).
#include <cstdio>

#include "grid/dagman.hpp"
#include "pegasus/planner.hpp"
#include "shape_claims.hpp"
#include "vds/chimera.hpp"

namespace {

using namespace nvo;

struct Workload {
  vds::VirtualDataCatalog vdc;
  std::string request = "final.vot";
  std::vector<std::string> intermediates;

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
      vds::Derivation d;
      d.name = "m" + std::to_string(i);
      d.transformation = "galMorph";
      d.bindings["image"] = vds::ActualArg{
          true, "g" + std::to_string(i) + ".fit", vds::Direction::kIn};
      d.bindings["galMorph"] = vds::ActualArg{
          true, "g" + std::to_string(i) + ".txt", vds::Direction::kOut};
      (void)vdc.define_derivation(d);
      dc.bindings["r" + std::to_string(i)] = vds::ActualArg{
          true, "g" + std::to_string(i) + ".txt", vds::Direction::kIn};
      intermediates.push_back("g" + std::to_string(i) + ".txt");
    }
    dc.bindings["out"] = vds::ActualArg{true, request, vds::Direction::kOut};
    (void)vdc.define_derivation(dc);
  }
};

/// Builds a grid where every intermediate already exists at a *far* archive
/// site with the given per-file size; recompute inputs are local.
struct Env {
  grid::Grid grid;
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;

  Env(const Workload& w, std::size_t intermediate_bytes) {
    (void)grid.add_site({"local", 16, 1.0, 10.0, 1000.0});
    (void)grid.add_site({"far-archive", 1, 1.0, 200.0, 2.0});  // slow WAN
    (void)tc.add({"galMorph", "local", "/g", {}});
    (void)tc.add({"concat", "local", "/c", {}});
    for (std::size_t i = 0; i < w.intermediates.size(); ++i) {
      const std::string img = "g" + std::to_string(i) + ".fit";
      rls.add(img, "local", "p");
      grid.put_file("local", img, 22160);
      rls.add(w.intermediates[i], "far-archive", "p");
      grid.put_file("far-archive", w.intermediates[i], intermediate_bytes);
    }
  }
};

double makespan(const Workload& w, Env& env, bool reuse, double compute_seconds) {
  const vds::Dag abstract =
      vds::compose_abstract_workflow(w.vdc, {w.request}).value();
  pegasus::PlannerConfig config;
  config.reduce = reuse;
  config.replica_policy = pegasus::ReplicaPolicy::kFirst;
  pegasus::Planner planner(env.grid, env.rls, env.tc, config, 1);
  auto plan = planner.plan(abstract);
  if (!plan.ok()) return -1.0;
  grid::JobCostModel cost;
  cost.compute_reference_seconds = compute_seconds;
  grid::DagManSim dagman(env.grid, cost, grid::FailureModel{}, 2);
  return dagman.run(plan->concrete)->makespan_seconds;
}

int run_a1() {
  bench::ShapeClaims claims;
  std::printf("=== A1: reuse vs recompute — where the Pegasus assumption "
              "breaks ===\n");
  const int n = 64;
  Workload w(n);
  std::printf("%zu-job workflow; intermediates replicated only at a slow "
              "archive (2 Mbps, 200 ms)\n",
              static_cast<std::size_t>(n) + 1);
  std::printf("%16s %16s | %14s %14s | %s\n", "compute(s/job)", "file size(MB)",
              "reuse(sim s)", "recompute(s)", "winner");
  for (double compute_s : {0.5, 2.0, 10.0, 60.0}) {
    for (std::size_t mb : {1u, 16u}) {
      Env reuse_env(w, mb * 1000000ull);
      Env recompute_env(w, mb * 1000000ull);
      const double with_reuse = makespan(w, reuse_env, true, compute_s);
      const double without = makespan(w, recompute_env, false, compute_s);
      std::printf("%16.1f %16zu | %14.1f %14.1f | %s\n", compute_s, mb,
                  with_reuse, without,
                  with_reuse < without ? "reuse" : "RECOMPUTE");
      if (compute_s == 0.5 && mb == 16) {
        claims.check(without < with_reuse, "recompute wins at (0.5 s/job, 16 MB)");
      }
      if (compute_s == 60.0 && mb == 1) {
        claims.check(with_reuse < without, "reuse wins at (60 s/job, 1 MB)");
      }
    }
  }
  std::printf("(cheap jobs + big far-away products: fetching loses — the "
              "paper's 'always cheaper to fetch' assumption is workload-"
              "dependent)\n");
  return claims.exit_code();
}

}  // namespace

int main() { return run_a1(); }
