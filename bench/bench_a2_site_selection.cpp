// A2 — Ablation: site-selection policy. "Currently the Concrete Workflow
// Generator picks a random location to execute from among the returned
// locations" (§3.2) and "in ASCI Grid the system tries to schedule the job
// on the least loaded resource" (§3.3). This ablation compares random vs
// least-loaded mapping across pool-imbalance regimes on the simulated
// three-pool grid, plus the random replica-selection policy's effect on
// stage-in cost.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "grid/dagman.hpp"
#include "pegasus/planner.hpp"
#include "vds/chimera.hpp"

namespace {

using namespace nvo;

vds::VirtualDataCatalog independent_jobs(int n) {
  vds::VirtualDataCatalog vdc;
  vds::Transformation tr;
  tr.name = "t";
  tr.args = {{"input", vds::Direction::kIn}, {"output", vds::Direction::kOut}};
  (void)vdc.define_transformation(tr);
  for (int i = 0; i < n; ++i) {
    vds::Derivation d;
    d.name = "d" + std::to_string(i);
    d.transformation = "t";
    d.bindings["input"] = vds::ActualArg{true, "shared.fit", vds::Direction::kIn};
    d.bindings["output"] =
        vds::ActualArg{true, "o" + std::to_string(i), vds::Direction::kOut};
    (void)vdc.define_derivation(d);
  }
  return vdc;
}

std::vector<std::string> all_outputs(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back("o" + std::to_string(i));
  return out;
}

/// Plans on `plan_grid` (what the planner believes) and executes on
/// `exec_grid` (ground truth — possibly contended). When they are the same
/// object this is the ordinary case.
double run_policy_split(grid::Grid plan_grid, grid::Grid exec_grid,
                        pegasus::SitePolicy policy, int jobs, std::uint64_t seed,
                        const grid::Mds* mds = nullptr) {
  vds::VirtualDataCatalog vdc = independent_jobs(jobs);
  const vds::Dag abstract =
      vds::compose_abstract_workflow(vdc, all_outputs(jobs)).value();
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;
  for (const std::string& site : plan_grid.site_names()) {
    (void)tc.add({"t", site, "/t", {}});
  }
  rls.add("shared.fit", plan_grid.site_names().front(), "p");
  plan_grid.put_file(plan_grid.site_names().front(), "shared.fit", 1 << 20);
  exec_grid.put_file(exec_grid.site_names().front(), "shared.fit", 1 << 20);
  pegasus::PlannerConfig config;
  config.site_policy = policy;
  config.stage_out = false;
  config.register_outputs = false;
  pegasus::Planner planner(plan_grid, rls, tc, config, seed);
  if (mds) planner.use_mds(mds, 0.0);
  auto plan = planner.plan(abstract);
  grid::JobCostModel cost;
  cost.compute_reference_seconds = 10.0;
  grid::DagManSim dagman(exec_grid, cost, grid::FailureModel{}, seed);
  return dagman.run(plan->concrete)->makespan_seconds;
}

double run_policy(const grid::Grid& grid, pegasus::SitePolicy policy, int jobs,
                  std::uint64_t seed, const grid::Mds* mds = nullptr) {
  return run_policy_split(grid, grid, policy, jobs, seed, mds);
}

void print_a2() {
  std::printf("=== A2: random vs least-loaded site selection ===\n");
  struct Scenario {
    const char* name;
    grid::Grid grid;
  };
  grid::Grid balanced;
  (void)balanced.add_site({"a", 12, 1.0, 20.0, 100.0});
  (void)balanced.add_site({"b", 12, 1.0, 20.0, 100.0});
  (void)balanced.add_site({"c", 12, 1.0, 20.0, 100.0});
  grid::Grid skewed;
  (void)skewed.add_site({"small", 2, 1.0, 20.0, 100.0});
  (void)skewed.add_site({"medium", 8, 1.0, 20.0, 100.0});
  (void)skewed.add_site({"huge", 26, 1.0, 20.0, 100.0});
  Scenario scenarios[] = {{"balanced pools (12/12/12)", balanced},
                          {"skewed pools (2/8/26)", skewed},
                          {"the paper's grid (6/24/12)", grid::make_paper_grid()}};
  std::printf("%-28s %10s | %14s %14s | %8s\n", "pools", "jobs", "random(sim s)",
              "least-loaded", "gain");
  for (const Scenario& s : scenarios) {
    for (int jobs : {60, 300}) {
      // Average the random policy over several seeds — it is random.
      double random_sum = 0.0;
      const int trials = 5;
      for (int t = 0; t < trials; ++t) {
        random_sum += run_policy(s.grid, pegasus::SitePolicy::kRandom, jobs,
                                 100 + static_cast<std::uint64_t>(t));
      }
      const double random_ms = random_sum / trials;
      const double loaded =
          run_policy(s.grid, pegasus::SitePolicy::kLeastLoaded, jobs, 100);
      std::printf("%-28s %10d | %14.1f %14.1f | %7.2fx\n", s.name, jobs,
                  random_ms, loaded, random_ms / loaded);
    }
  }
  std::printf("(random mapping ignores slot counts; least-loaded tracks them "
              "and wins most on skewed pools)\n\n");

  // The MDS variant (the paper's future work): least-loaded sees only the
  // static slot counts; the MDS also sees *external* load. Ground truth:
  // other users occupy 22 of uwisc's 24 slots, so the execution grid has
  // only 2 free there. The blind planner still dumps most jobs on uwisc.
  std::printf("with external load (MDS dynamic information, the paper's "
              "planned extension):\n");
  grid::Grid plan_grid = grid::make_paper_grid();
  grid::Grid truth;  // what's actually free
  (void)truth.add_site({"isi", 6, 1.0, 15.0, 155.0});
  (void)truth.add_site({"uwisc", 2, 0.8, 35.0, 45.0});  // 22 of 24 taken
  (void)truth.add_site({"fermilab", 12, 1.2, 25.0, 100.0});
  grid::Mds mds;
  mds.publish(grid::ResourceInfo{"isi", 6, 0, 0, 0.0, 0.0});
  mds.publish(grid::ResourceInfo{"uwisc", 24, 22, 40, 0.92, 0.0});
  mds.publish(grid::ResourceInfo{"fermilab", 12, 0, 0, 0.0, 0.0});
  const double blind = run_policy_split(plan_grid, truth,
                                        pegasus::SitePolicy::kLeastLoaded, 120, 100);
  const double informed = run_policy_split(plan_grid, truth,
                                           pegasus::SitePolicy::kMdsRank, 120, 100,
                                           &mds);
  std::printf("  least-loaded (blind to external load): %8.1f sim s\n", blind);
  std::printf("  MDS-ranked   (sees uwisc is slammed) : %8.1f sim s  (%.1fx "
              "better)\n\n",
              informed, blind / informed);
}

void BM_SiteSelectionRandom(benchmark::State& state) {
  grid::Grid grid = grid::make_paper_grid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_policy(grid, pegasus::SitePolicy::kRandom, 120, 1));
  }
}
BENCHMARK(BM_SiteSelectionRandom)->Unit(benchmark::kMillisecond);

void BM_SiteSelectionLeastLoaded(benchmark::State& state) {
  grid::Grid grid = grid::make_paper_grid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_policy(grid, pegasus::SitePolicy::kLeastLoaded, 120, 1));
  }
}
BENCHMARK(BM_SiteSelectionLeastLoaded)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_a2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
