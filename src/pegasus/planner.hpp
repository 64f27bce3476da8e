// Pegasus — Planning for Execution in Grids (§3.2). Maps a Chimera
// abstract workflow onto the available grid resources, in the stages of
// paper Figure 2:
//
//   1. abstract-DAG reduction against the RLS ("if data products described
//      within the AW already exist, Pegasus reuses them"),
//   2. feasibility check ("the workflow can only be executed if the input
//      files for [root] components can be found to exist somewhere in the
//      Grid"),
//   3. site selection via the Transformation Catalog ("currently picks a
//      random location to execute from among the returned locations") with
//      a least-loaded alternative (benchmarked as ablation A2),
//   4. transfer-node insertion for stage-in, inter-site, and stage-out
//      movement, with random replica selection,
//   5. registration-node insertion publishing new products to the RLS,
//   6. Condor-G/DAGMan submit-file generation.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/rng.hpp"
#include "grid/dagman.hpp"
#include "grid/grid.hpp"
#include "grid/mds.hpp"
#include "pegasus/rls.hpp"
#include "pegasus/tc.hpp"
#include "vds/dag.hpp"

namespace nvo::pegasus {

/// kRandom is the paper's implementation ("currently ... picks a random
/// location"); kLeastLoaded balances by this plan's own assignments;
/// kMdsRank uses dynamic resource information from the MDS (the paper's
/// named future work), falling back to kLeastLoaded when no fresh record
/// exists; kDataLocality scores each candidate by the estimated stage-in
/// seconds for the node's raw inputs from their nearest RLS replicas, plus
/// `locality_load_weight` seconds per unit of load (plan-local assignments
/// per slot, and MDS pressure when attached) — the Deelman et al. tradeoff
/// of moving the computation to the data vs. spreading it over idle pools.
enum class SitePolicy { kRandom, kLeastLoaded, kMdsRank, kDataLocality };
/// kNearest picks the replica with the cheapest modeled transfer to the
/// execution site (ties to catalog order); the others ignore the site.
enum class ReplicaPolicy { kRandom, kFirst, kNearest };

struct PlannerConfig {
  SitePolicy site_policy = SitePolicy::kRandom;
  ReplicaPolicy replica_policy = ReplicaPolicy::kRandom;
  bool reduce = true;               ///< enable abstract-DAG reduction
  bool register_outputs = true;     ///< add RLS registration nodes
  bool stage_out = true;            ///< deliver final outputs to output_site
  std::string output_site = "user"; ///< the "user-specified location U" of Fig. 4
  /// kDataLocality: seconds of stage-in a site may cost before one unit of
  /// load (a full slot's worth of assignments, or 100% MDS pressure) makes
  /// a farther site preferable.
  double locality_load_weight = 10.0;
};

struct PlanResult {
  vds::Dag concrete;
  std::size_t abstract_jobs = 0;    ///< compute jobs before reduction
  std::size_t pruned_jobs = 0;      ///< removed by reduction
  std::size_t compute_nodes = 0;
  std::size_t transfer_nodes = 0;
  std::size_t register_nodes = 0;
  /// Final products satisfied directly from the RLS (whole request already
  /// materialized).
  std::vector<std::string> reused_outputs;
  /// Ready-on-data edges: compute node id -> the raw (staged, not produced
  /// in-workflow) input LFNs it consumes, in the node's input order. A
  /// dataflow executor keys each node's earliest start on the stage-in
  /// arrival of these files instead of assuming everything landed before
  /// the DAG was submitted. Recorded for every compute node with raw
  /// inputs, whether or not a transfer node was inserted (a replica local
  /// to the execution site at plan time still had to arrive over the WAN).
  std::map<std::string, std::vector<std::string>> data_inputs;
};

class Planner {
 public:
  Planner(const grid::Grid& grid, const ReplicaLocationService& rls,
          const TransformationCatalog& tc, PlannerConfig config,
          std::uint64_t seed = 1234);

  /// Attaches a Monitoring and Discovery Service for kMdsRank site
  /// selection. `now_s` is the query time used for record freshness.
  void use_mds(const grid::Mds* mds, double now_s) {
    mds_ = mds;
    mds_now_s_ = now_s;
  }

  /// Full pipeline: reduce -> feasibility -> concretize. The abstract
  /// workflow's nodes move into the concrete one; pass an rvalue to skip
  /// the copy.
  Expected<PlanResult> plan(vds::Dag abstract);

  /// Stage 1: prune jobs whose needed outputs all have replicas. Exposed
  /// for the Fig. 3 reduction benchmark.
  Expected<vds::Dag> reduce(const vds::Dag& abstract) const;

  /// Stage 2: every file consumed but not produced inside `dag` must have a
  /// replica somewhere.
  Status check_feasibility(const vds::Dag& dag) const;

  const PlannerConfig& config() const { return config_; }

 private:
  /// A site where a transformation can run, with its installed executable.
  struct SiteChoice {
    std::string site;
    std::string executable;
  };

  /// Stage 1's verdict: indices of the jobs reduction keeps, ascending.
  /// `topo` is a topological order of `abstract`.
  std::vector<std::size_t> needed_jobs(const vds::Dag& abstract,
                                       const std::vector<std::size_t>& topo) const;
  Expected<PlanResult> concretize(vds::Dag reduced, std::size_t abstract_jobs,
                                  std::size_t pruned,
                                  std::vector<std::string> reused_outputs);
  /// The TC sites of `transformation` that the grid knows, in TC order.
  Expected<std::vector<SiteChoice>> site_choices(const std::string& transformation) const;
  /// Index into `candidates` of the site `node` runs at.
  std::size_t select_site(const vds::DagNode& node,
                          const std::vector<SiteChoice>& candidates,
                          const std::map<std::string, int>& load);
  Expected<Replica> select_replica(const std::string& lfn,
                                   const std::string& exec_site);

  const grid::Grid& grid_;
  const ReplicaLocationService& rls_;
  const TransformationCatalog& tc_;
  PlannerConfig config_;
  mutable Rng rng_;
  const grid::Mds* mds_ = nullptr;
  double mds_now_s_ = 0.0;
  /// Scratch buffer for lookup_into: reused across the many per-LFN replica
  /// resolutions a single concretization performs.
  std::vector<Replica> replica_scratch_;
};

/// Condor-G submit-file generation (Fig. 2 step "Submit File Generator"):
/// one submit description per node plus the DAGMan .dag file wiring
/// PARENT/CHILD order.
struct SubmitFiles {
  std::map<std::string, std::string> submit;  ///< "<node>.sub" -> contents
  std::string dag_file;                       ///< the DAGMan input
};
SubmitFiles generate_submit_files(const vds::Dag& concrete);

/// Applies the side effects of a successful (or partial) execution to the
/// RLS and grid storage: every succeeded register node publishes its file
/// at the planner's output site; every succeeded transfer lands its file at
/// the destination site. Compute products land at the site the node
/// *actually ran* (the report's per-node site — work stealing and rescue
/// remaps move nodes off their planned site). Returns the number of new
/// registrations.
std::size_t commit_execution(const vds::Dag& concrete, const grid::RunReport& report,
                             ReplicaLocationService& rls, grid::Grid& grid);

/// What remap_rescue_sites changed, for reporting.
struct RescueRemap {
  std::size_t compute_remapped = 0;      ///< compute nodes moved off dead pools
  std::size_t transfers_retargeted = 0;  ///< transfer endpoints re-pointed
  /// Inputs whose only staged copy died with the pool: a fresh stage-in to
  /// the consumer's new site is synthesized into the rescue DAG for each.
  std::size_t inputs_restaged = 0;
};

/// Re-maps a rescue DAG around dead pools: compute nodes planned for a site
/// in `dead_sites` move to the least-remapped surviving site where their
/// transformation is installed; transfer destinations follow their consumer;
/// transfer sources pointing at a dead pool are re-pointed at a surviving
/// RLS replica, then any surviving grid copy, then the (remapped) in-rescue
/// producer, then `fallback_source_site` (the submit host's own copy — the
/// last resort that always exists for raw inputs staged from the cache).
/// Transfers that end up with source == destination are kept: they cost
/// zero simulated seconds and preserve ordering edges.
Expected<RescueRemap> remap_rescue_sites(vds::Dag& rescue, const grid::Grid& grid,
                                         const std::set<std::string>& dead_sites,
                                         const TransformationCatalog& tc,
                                         const ReplicaLocationService& rls,
                                         const std::string& fallback_source_site);

}  // namespace nvo::pegasus
