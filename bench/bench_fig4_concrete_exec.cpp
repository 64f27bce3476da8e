// F4 — Paper Figure 4: the concrete, executable workflow ("Move b from A to
// B / Execute d2 at B / Move c from B to U / Register c in the RLS").
// Regenerates exactly that structure from the paper's d1/d2 chain with b
// pre-materialized, prints the resulting DAG, and measures executed
// makespans with and without virtual-data reuse on the simulated grid.
// Claims: the concrete DAG is the figure's four nodes, and reuse beats
// recompute.
#include <cstdio>

#include "grid/dagman.hpp"
#include "pegasus/planner.hpp"
#include "shape_claims.hpp"
#include "vds/chimera.hpp"

namespace {

using namespace nvo;

vds::VirtualDataCatalog paper_chain() {
  vds::VirtualDataCatalog vdc;
  vds::Transformation tr;
  tr.name = "t";
  tr.args = {{"input", vds::Direction::kIn}, {"output", vds::Direction::kOut}};
  (void)vdc.define_transformation(tr);
  auto dv = [&](const char* name, const char* in, const char* out) {
    vds::Derivation d;
    d.name = name;
    d.transformation = "t";
    d.bindings["input"] = vds::ActualArg{true, in, vds::Direction::kIn};
    d.bindings["output"] = vds::ActualArg{true, out, vds::Direction::kOut};
    (void)vdc.define_derivation(d);
  };
  dv("d1", "a", "b");
  dv("d2", "b", "c");
  return vdc;
}

/// The figure node for node: move b in, execute d2, move c out, register c.
bool is_figure4_dag(const vds::Dag& dag) {
  auto only = [&](const std::vector<std::string>& ids, vds::JobType type,
                  const char* file) -> const vds::DagNode* {
    if (ids.size() != 1) return nullptr;
    const vds::DagNode* n = dag.node(ids.front());
    return n != nullptr && n->type == type && n->file == file ? n : nullptr;
  };
  const vds::DagNode* d2 = dag.node("d2");
  if (dag.num_nodes() != 4 || d2 == nullptr || d2->type != vds::JobType::kCompute) {
    return false;
  }
  const vds::DagNode* move_in = only(dag.parents("d2"), vds::JobType::kTransfer, "b");
  const vds::DagNode* move_out = only(dag.children("d2"), vds::JobType::kTransfer, "c");
  return move_in != nullptr && move_out != nullptr &&
         only(dag.children(move_out->id), vds::JobType::kRegister, "c") != nullptr;
}

int run_figure4() {
  bench::ShapeClaims claims;
  std::printf("=== Figure 4: concrete, executable workflow ===\n");
  vds::VirtualDataCatalog vdc = paper_chain();
  const vds::Dag abstract = vds::compose_abstract_workflow(vdc, {"c"}).value();

  grid::Grid grid = grid::make_paper_grid();
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;
  // b exists at site "A" (fermilab); d2 will execute at site "B" (uwisc);
  // output c delivered to the user location U and registered.
  rls.add("a", "fermilab", "gsiftp://fermilab/a");
  grid.put_file("fermilab", "a", 1 << 20);
  rls.add("b", "fermilab", "gsiftp://fermilab/b");
  grid.put_file("fermilab", "b", 4 << 20);
  (void)tc.add({"t", "uwisc", "/grid/bin/t", {}});

  pegasus::PlannerConfig config;
  config.output_site = "user";
  pegasus::Planner planner(grid, rls, tc, config, 1);
  auto plan = planner.plan(abstract);
  std::printf("abstract: 2 jobs (d1, d2); b already materialized at fermilab\n");
  std::printf("reduced:  %zu job(s); concrete workflow:\n%s",
              plan->compute_nodes, plan->concrete.to_string().c_str());

  grid::JobCostModel cost;
  cost.compute_reference_seconds = 30.0;
  grid::DagManSim dagman(grid, cost, grid::FailureModel{}, 2);
  auto with_reuse = dagman.run(plan->concrete);
  std::printf("makespan with reuse of b: %.2f sim s\n",
              with_reuse->makespan_seconds);

  pegasus::PlannerConfig no_reuse = config;
  no_reuse.reduce = false;
  pegasus::Planner planner2(grid, rls, tc, no_reuse, 1);
  auto full = planner2.plan(abstract);
  grid::DagManSim dagman2(grid, cost, grid::FailureModel{}, 2);
  auto without = dagman2.run(full->concrete);
  std::printf("makespan recomputing b:   %.2f sim s (%zu jobs)\n",
              without->makespan_seconds, full->compute_nodes);
  std::printf("(paper assumption: 'it is always more costly to compute the "
              "data product than to fetch it' — reuse wins here)\n");
  claims.check(is_figure4_dag(plan->concrete),
               "the concrete DAG is move b in, execute d2, move c out, register c");
  claims.check(with_reuse->makespan_seconds < without->makespan_seconds,
               "reuse of b beats recomputing it");
  return claims.exit_code();
}

}  // namespace

int main() { return run_figure4(); }
