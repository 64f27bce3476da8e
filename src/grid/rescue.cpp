#include "grid/rescue.hpp"

#include <map>
#include <vector>

namespace nvo::grid {

namespace {

/// True when the report contains no node that still needs running.
bool all_succeeded(const RunReport& report) {
  return report.jobs_failed == 0 && report.jobs_skipped == 0 &&
         report.jobs_succeeded == report.jobs_total;
}

}  // namespace

Expected<vds::Dag> make_rescue_dag(const vds::Dag& concrete,
                                   const RunReport& report) {
  // All-succeeded (or empty) report: nothing to rescue. Return the empty
  // DAG straight away rather than building a degenerate one node-by-node.
  if (all_succeeded(report)) return vds::Dag{};
  std::vector<std::size_t> unfinished;
  std::vector<char> picked(concrete.num_nodes(), 0);
  for (const NodeResult& r : report.nodes) {
    if (r.outcome == NodeOutcome::kSucceeded) continue;
    const std::size_t i = concrete.index_of(r.id);
    if (i == vds::Dag::npos) {
      return Error(ErrorCode::kInvalidArgument,
                   "report names unknown node " + r.id);
    }
    if (picked[i]) return Error(ErrorCode::kAlreadyExists, "node " + r.id);
    picked[i] = 1;
    unfinished.push_back(i);
  }
  return concrete.subgraph(unfinished);
}

RunReport merge_node_outcomes(const vds::Dag& concrete,
                              const std::map<std::string, NodeResult>& latest) {
  RunReport merged;
  merged.jobs_total = concrete.num_nodes();
  for (const vds::DagNode& n : concrete.nodes()) {
    const std::string& id = n.id;
    switch (n.type) {
      case vds::JobType::kCompute:
        ++merged.compute_jobs;
        break;
      case vds::JobType::kTransfer:
        ++merged.transfer_jobs;
        break;
      case vds::JobType::kRegister:
        ++merged.register_jobs;
        break;
    }
    const auto it = latest.find(id);
    NodeResult r;
    if (it != latest.end()) {
      r = it->second;
    } else {
      r.id = id;
    }
    switch (r.outcome) {
      case NodeOutcome::kSucceeded:
        ++merged.jobs_succeeded;
        break;
      case NodeOutcome::kFailed:
        ++merged.jobs_failed;
        break;
      case NodeOutcome::kSkipped:
        ++merged.jobs_skipped;
        break;
    }
    merged.makespan_seconds = std::max(merged.makespan_seconds, r.end_seconds);
    merged.nodes.push_back(std::move(r));
  }
  merged.workflow_succeeded = merged.jobs_succeeded == merged.jobs_total;
  return merged;
}

Expected<RescueOutcome> run_with_rescue(DagManSim& dagman, const vds::Dag& concrete,
                                        int max_rounds) {
  RescueOutcome outcome;
  std::map<std::string, NodeResult> latest;

  // Each round runs the previous round's rescue DAG; the first runs
  // `concrete` itself, uncopied.
  const vds::Dag* current = &concrete;
  vds::Dag rescue_dag;
  for (int round = 0; round < max_rounds && !current->empty(); ++round) {
    auto report = dagman.run(*current);
    if (!report.ok()) return report.error();
    ++outcome.rounds;
    for (const NodeResult& r : report->nodes) latest[r.id] = r;
    // A complete round — whether or not the engine set the flag — is
    // terminal: building and running a rescue DAG over zero unfinished
    // nodes would burn a round on an empty execution.
    if (report->workflow_succeeded || all_succeeded(report.value())) break;
    auto rescue = make_rescue_dag(*current, report.value());
    if (!rescue.ok()) return rescue.error();
    rescue_dag = std::move(rescue.value());
    current = &rescue_dag;
  }

  // Merge the final per-node outcomes into a report shaped like a single
  // run over the original DAG.
  outcome.final_report = merge_node_outcomes(concrete, latest);
  outcome.fully_succeeded = outcome.final_report.workflow_succeeded;
  return outcome;
}

}  // namespace nvo::grid
