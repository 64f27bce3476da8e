// DAGMan-style workflow execution: DagManSim is a discrete-event simulation
// of Condor-G/DAGMan running a concrete workflow across the grid's sites —
// bounded slots per pool, modeled transfer times, stochastic + injected
// failures, and the DAGMan retry policy. Deterministic in its seed;
// makespans are simulated seconds, not wall time. A node runs only when all
// its parents succeeded; descendants of a permanently failed node are
// skipped and the run is reported as partial. The morphology kernels
// themselves run on the compute service's thread pool, driven by the
// simulation's node callback.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/expected.hpp"
#include "common/rng.hpp"
#include "grid/grid.hpp"
#include "vds/dag.hpp"

namespace nvo::grid {

/// Per-node simulated durations.
struct JobCostModel {
  /// Reference-machine seconds for a compute job; divided by the site's
  /// speed factor. Overridden per node by `compute_seconds` when set.
  double compute_reference_seconds = 2.0;
  std::function<double(const vds::DagNode&)> compute_seconds;
  double register_seconds = 0.2;  ///< RLS registration cost
};

/// Stochastic and injected failures plus the DAGMan retry policy.
struct FailureModel {
  double compute_failure_rate = 0.0;   ///< per-attempt
  double transfer_failure_rate = 0.0;  ///< per-attempt
  int max_retries = 2;                 ///< extra attempts after the first
  /// Node ids that fail every attempt (e.g. jobs on corrupted images when
  /// the kernel-level validity flag is disabled).
  std::set<std::string> permanent_failures;
  /// Whole-pool outages: site -> simulated second at which the pool drops
  /// off the grid. From that instant the site accepts no new dispatches,
  /// jobs running there (and transfers touching it) fail terminally with no
  /// retry, and queued-but-unstarted nodes are left skipped for a rescue
  /// round to re-map onto survivors. A fired outage latches across run()
  /// calls (DagManSim::dead_sites), so rescue rounds keep avoiding the pool.
  std::map<std::string, double> site_outage_at_s;
};

enum class NodeOutcome { kSucceeded, kFailed, kSkipped };

struct NodeResult {
  std::string id;
  NodeOutcome outcome = NodeOutcome::kSkipped;
  int attempts = 0;
  double start_seconds = 0.0;  ///< simulated (Sim) or wall (Local) time
  double end_seconds = 0.0;
  std::string site;
};

struct RunReport {
  bool workflow_succeeded = false;  ///< every node succeeded
  double makespan_seconds = 0.0;
  std::size_t jobs_total = 0;
  std::size_t jobs_succeeded = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_skipped = 0;
  std::size_t compute_jobs = 0;
  std::size_t transfer_jobs = 0;
  std::size_t register_jobs = 0;
  std::size_t retries = 0;
  /// Queued-but-unstarted compute nodes migrated to an idle pool by work
  /// stealing (straggler rebalancing).
  std::size_t stolen_jobs = 0;
  /// Bytes moved between distinct sites: every transfer-node attempt whose
  /// source and destination differ, plus steal migrations of staged inputs.
  std::size_t wan_bytes = 0;
  /// Compute nodes terminally expired at dispatch: the remaining deadline
  /// budget could not cover queue delay + estimated compute, so no attempt
  /// was ever issued (they appear kSkipped in `nodes`, descendants stay
  /// blocked, and no rescue round should retry them in this request).
  std::size_t jobs_expired = 0;
  /// The run was cut short by cooperative cancellation: queued nodes were
  /// dropped and every held slot died with the run-local state. The report
  /// is partial (completions up to the cancel point stand).
  bool cancelled = false;
  /// Pools whose scripted outage fired during this run.
  std::vector<std::string> sites_lost;
  std::map<std::string, double> site_busy_seconds;
  std::vector<NodeResult> nodes;

  const NodeResult* result_for(const std::string& id) const;
};

/// Discrete-event backend.
class DagManSim {
 public:
  DagManSim(const Grid& grid, JobCostModel cost, FailureModel failure,
            std::uint64_t seed = 42);

  /// Invoked each time a node reaches a *final* outcome (succeeded, or
  /// failed with retries exhausted) — the hook checkpoint journals use to
  /// persist completions as they happen, not at end of run. Returning an
  /// error aborts the run immediately with that error (simulating the
  /// submit host dying mid-DAG); already-recorded completions stand.
  using NodeCallback = std::function<Status(const NodeResult&)>;
  void set_node_callback(NodeCallback cb) { on_node_ = std::move(cb); }

  /// Data-readiness constraints: a node may not start before its ready
  /// time (simulated seconds), even with every parent satisfied and a free
  /// slot. This is how pipelined staging feeds the DAG: the planner's
  /// ready-on-data edges map each compute node to the stage-in arrivals of
  /// its inputs, and the executor holds the node until the data has landed
  /// instead of assuming a phase barrier staged everything at t=0. Nodes
  /// absent from the map are ready immediately. The map persists across
  /// run() calls (rescue-DAG resumes reuse it) until replaced.
  void set_ready_times(std::map<std::string, double> ready_seconds) {
    ready_ = std::move(ready_seconds);
  }

  /// Straggler rebalancing: when a pool drains its own queue, a freed slot
  /// may pull the newest queued-but-unstarted compute node from the most
  /// backlogged other pool, paying the migration cost of the node's staged
  /// inputs over the inter-site links. Off by default (the paper's pools
  /// never migrated jobs).
  void set_work_stealing(bool on) { work_stealing_ = on; }
  /// Gates which nodes a thief site may take (e.g. the transformation must
  /// be installed there). Unset = any queued node may move.
  using StealFilter = std::function<bool(const vds::DagNode&, const std::string&)>;
  void set_steal_filter(StealFilter filter) { steal_filter_ = std::move(filter); }

  /// End-to-end deadline on the run's own simulated timeline (seconds from
  /// t=0 of run()); <= 0 disables. At dispatch time a compute node whose
  /// remaining budget cannot cover queue delay + estimated duration is
  /// terminally expired: it never takes a slot, its descendants stay
  /// blocked (reported skipped), and RunReport::jobs_expired counts it.
  /// Nodes already in flight when the deadline passes run to completion —
  /// expiry is a dispatch gate, not preemption.
  void set_deadline_s(double deadline_s) { deadline_s_ = deadline_s; }

  /// Cooperative cancellation: the token is checked before each simulated
  /// event is processed. Once cancelled, the loop stops — queued nodes and
  /// parked events are dropped (outcomes stay kSkipped), every held slot
  /// dies with the run-local state, and the returned report is partial
  /// with RunReport::cancelled set. Safe to flip from another thread.
  void set_cancel_token(CancellationToken token) { cancel_ = std::move(token); }

  /// Sites whose scripted outage has fired, latched across run() calls so
  /// rescue-DAG rounds keep treating the pool as gone.
  const std::set<std::string>& dead_sites() const { return dead_sites_; }

  /// Executes the concrete DAG. Compute nodes must carry a site that exists
  /// in the grid. Transfer nodes consume no slot (GridFTP streams run
  /// beside the pool); compute nodes hold one slot at their site for their
  /// duration.
  Expected<RunReport> run(const vds::Dag& dag);

 private:
  const Grid& grid_;
  JobCostModel cost_;
  FailureModel failure_;
  std::uint64_t seed_;
  std::map<std::string, double> ready_;
  /// Lifetime failure draws per node, persisting across run() calls. Each
  /// draw's verdict is a pure function of (seed, node, draw index), so
  /// outcomes are event-order invariant — a pipelined schedule reaches the
  /// same verdicts as a barriered one — while a rescue-DAG round re-running
  /// a failed node still gets a fresh draw rather than its old one.
  std::map<std::string, int> draw_count_;
  NodeCallback on_node_;
  double deadline_s_ = 0.0;
  CancellationToken cancel_;
  bool work_stealing_ = false;
  StealFilter steal_filter_;
  /// Pools lost to fired outages, persisting across run() calls.
  std::set<std::string> dead_sites_;
};

}  // namespace nvo::grid
