// Workflow DAG shared between Chimera (abstract workflows over logical files
// and logical transformations) and Pegasus (concrete workflows with sites,
// transfer nodes, and registration nodes). "The workflows are represented as
// Directed Acyclic Graphs" (§3.2).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/expected.hpp"

namespace nvo::vds {

/// Node flavor. Abstract workflows contain only kCompute nodes; Pegasus
/// inserts kTransfer (stage-in/stage-out) and kRegister (publish to RLS)
/// nodes during concretization (paper Fig. 4).
enum class JobType { kCompute, kTransfer, kRegister };

const char* to_string(JobType t);

struct DagNode {
  std::string id;              ///< unique within the DAG (derivation name)
  JobType type = JobType::kCompute;
  std::string transformation;  ///< logical transformation name (kCompute)
  std::vector<std::string> inputs;   ///< logical file names consumed
  std::vector<std::string> outputs;  ///< logical file names produced
  std::map<std::string, std::string> args;  ///< actual scalar parameters

  // --- concrete-workflow fields (set by Pegasus) ---
  std::string site;        ///< execution site (kCompute) or destination (kTransfer)
  std::string source_site; ///< transfer origin (kTransfer)
  std::string file;        ///< subject logical file (kTransfer / kRegister)
  std::string executable;  ///< physical executable path (kCompute)
};

/// Adjacency-list DAG with stable node ordering (insertion order), cycle
/// detection, and the traversals the planner and executor need.
class Dag {
 public:
  /// Adds a node; ids must be unique.
  Status add_node(DagNode node);

  /// Adds a dependency edge parent -> child; both must exist. Duplicate
  /// edges are ignored.
  Status add_edge(const std::string& parent, const std::string& child);

  bool has_node(const std::string& id) const;
  const DagNode* node(const std::string& id) const;
  DagNode* mutable_node(const std::string& id);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const;
  bool empty() const { return nodes_.empty(); }

  /// Node ids in insertion order.
  std::vector<std::string> node_ids() const;

  const std::vector<std::string>& parents(const std::string& id) const;
  const std::vector<std::string>& children(const std::string& id) const;

  /// Nodes with no parents / no children.
  std::vector<std::string> roots() const;
  std::vector<std::string> leaves() const;

  /// Kahn topological order; error when a cycle exists.
  Expected<std::vector<std::string>> topological_order() const;

  /// Multi-line human-readable rendering for logs and examples.
  std::string to_string() const;

 private:
  std::vector<DagNode> nodes_;                       // insertion order
  std::map<std::string, std::size_t> index_;         // id -> position
  std::map<std::string, std::vector<std::string>> parents_;
  std::map<std::string, std::vector<std::string>> children_;
  static const std::vector<std::string> kEmpty;
};

}  // namespace nvo::vds
