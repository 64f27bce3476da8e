// F2 — Paper Figure 2: "Chimera-driven Pegasus", the sixteen-step request
// pipeline: abstract workflow in, RLS lookups, reduction, Transformation
// Catalog mapping, submit-file generation, DAGMan execution, results out.
// Regenerates the stage-by-stage cost profile for galMorph-shaped requests
// of the paper's cluster sizes. The compose/plan/submit-gen columns are wall
// milliseconds of this host; the claims read only the counts and the sim
// clock: jobs = N+1, registers = 1, and the makespan rises with N.
#include <cstdio>

#include "pegasus/request_manager.hpp"
#include "shape_claims.hpp"

namespace {

using namespace nvo;

struct Workload {
  vds::VirtualDataCatalog vdc;
  grid::Grid grid = grid::make_paper_grid();
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;
  std::string request;

  explicit Workload(int galaxies) {
    vds::Transformation leaf;
    leaf.name = "galMorph";
    leaf.args = {{"image", vds::Direction::kIn},
                 {"galMorph", vds::Direction::kOut}};
    (void)vdc.define_transformation(leaf);
    vds::Transformation concat;
    concat.name = "concat";
    for (int i = 0; i < galaxies; ++i) {
      concat.args.push_back({"r" + std::to_string(i), vds::Direction::kIn});
    }
    concat.args.push_back({"votable", vds::Direction::kOut});
    (void)vdc.define_transformation(concat);
    vds::Derivation dc;
    dc.name = "concat_all";
    dc.transformation = "concat";
    for (int i = 0; i < galaxies; ++i) {
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
      // Cutouts cached at ISI (the service's local cache), per §4.3.
      rls.add(img, "isi", "gsiftp://isi/" + img);
      grid.put_file("isi", img, 64 * 64 * 4 + 5760);
    }
    dc.bindings["votable"] = vds::ActualArg{true, "cluster.vot", vds::Direction::kOut};
    (void)vdc.define_derivation(dc);
    for (const std::string& site : grid.site_names()) {
      (void)tc.add({"galMorph", site, "/grid/bin/galMorph", {}});
      (void)tc.add({"concat", site, "/grid/bin/concat", {}});
    }
    request = "cluster.vot";
  }
};

int run_figure2() {
  bench::ShapeClaims claims;
  double previous_makespan = 0.0;
  std::printf("=== Figure 2: the Chimera-driven Pegasus request pipeline ===\n");
  std::printf("%10s | %12s %10s %12s | %10s %10s %10s | %14s\n", "galaxies",
              "compose(ms)", "plan(ms)", "submitgen(ms)", "jobs", "transfers",
              "registers", "makespan(sim s)");
  for (int n : {37, 152, 561}) {
    Workload w(n);
    pegasus::RequestManager manager(w.vdc, w.grid, w.rls, w.tc,
                                    pegasus::PlannerConfig{},
                                    grid::JobCostModel{}, grid::FailureModel{});
    auto trace = manager.handle({w.request});
    const std::string label = std::to_string(n) + " galaxies";
    if (!trace.ok()) {
      claims.check(false, label + " run: " + trace.error().to_string());
      continue;
    }
    std::printf("%10d | %12.2f %10.2f %12.2f | %10zu %10zu %10zu | %14.1f\n", n,
                trace->compose_ms, trace->plan_ms, trace->submit_gen_ms,
                trace->execution.compute_jobs, trace->execution.transfer_jobs,
                trace->execution.register_jobs,
                trace->execution.makespan_seconds);
    claims.check(trace->execution.compute_jobs == static_cast<std::size_t>(n) + 1,
                 label + ": jobs = N+1");
    claims.check(trace->execution.register_jobs == 1, label + ": registers = 1");
    claims.check(trace->execution.makespan_seconds > previous_makespan,
                 label + ": makespan rises with N");
    previous_makespan = trace->execution.makespan_seconds;
  }
  std::printf("(the pipeline stages are Fig. 2 steps 1-11; makespan is steps "
              "12-15 on the simulated 3-pool grid)\n");
  return claims.exit_code();
}

}  // namespace

int main() { return run_figure2(); }
