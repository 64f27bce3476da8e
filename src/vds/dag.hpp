// Workflow DAG shared between Chimera (abstract workflows over logical files
// and logical transformations) and Pegasus (concrete workflows with sites,
// transfer nodes, and registration nodes). "The workflows are represented as
// Directed Acyclic Graphs" (§3.2).
#pragma once

#include <map>
#include <string>
#include <unordered_map>
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

/// Adjacency-list DAG over dense node indices. A node's index is its
/// insertion position and never changes; parents and children are index
/// lists kept in edge-insertion order. Node ids are resolved to indices by
/// a hash lookup, used only where a caller names a node; the planner and
/// executor walk indices.
class Dag {
 public:
  /// Returned by index_of for an unknown id.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Adds a node; ids must be unique. Its index is num_nodes() before the call.
  Status add_node(DagNode node);

  /// Adds a dependency edge parent -> child; both must exist. Duplicate
  /// edges are ignored.
  Status add_edge(const std::string& parent, const std::string& child);
  /// Index form of add_edge; both indices must be below num_nodes().
  void add_edge(std::size_t parent, std::size_t child);

  /// Pre-sizes node storage and the id index for `n` nodes.
  void reserve(std::size_t n);

  bool has_node(const std::string& id) const { return index_of(id) != npos; }
  const DagNode* node(const std::string& id) const;
  DagNode* mutable_node(const std::string& id);
  /// The node's index, or npos.
  std::size_t index_of(const std::string& id) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return num_edges_; }
  bool empty() const { return nodes_.empty(); }

  /// Nodes in insertion (= index) order. Callers may edit every field of a
  /// node except its id, which the index is keyed on.
  const std::vector<DagNode>& nodes() const { return nodes_; }
  const DagNode& node_at(std::size_t i) const { return nodes_[i]; }
  DagNode& mutable_node_at(std::size_t i) { return nodes_[i]; }
  const std::vector<std::size_t>& parents_of(std::size_t i) const { return parents_[i]; }
  const std::vector<std::size_t>& children_of(std::size_t i) const {
    return children_[i];
  }

  /// Node ids in insertion order.
  std::vector<std::string> node_ids() const;

  /// Parent / child ids of a node in edge-insertion order (empty for an
  /// unknown id).
  std::vector<std::string> parents(const std::string& id) const;
  std::vector<std::string> children(const std::string& id) const;

  /// Nodes with no parents / no children.
  std::vector<std::string> roots() const;
  std::vector<std::string> leaves() const;

  /// The subgraph induced by `picks` (distinct node indices): the picked
  /// nodes in `picks` order, then, for each of them in that order, its
  /// edges to picked children in child order. The rvalue form moves the
  /// nodes out instead of copying them.
  Dag subgraph(const std::vector<std::size_t>& picks) const&;
  Dag subgraph(const std::vector<std::size_t>& picks) &&;

  /// Kahn topological order over indices (ready nodes leave in FIFO order,
  /// seeded in index order); error when a cycle exists.
  Expected<std::vector<std::size_t>> topological_indices() const;
  /// The same order as node ids.
  Expected<std::vector<std::string>> topological_order() const;

  /// Multi-line human-readable rendering for logs and examples.
  std::string to_string() const;

 private:
  /// Adds the edges among `picks` of `from` (see subgraph) to this DAG, whose
  /// node j is from's node picks[j].
  void add_induced_edges(const Dag& from, const std::vector<std::size_t>& picks);
  std::vector<std::string> ids_of(const std::vector<std::size_t>& indices) const;

  std::vector<DagNode> nodes_;  // insertion order
  std::vector<std::vector<std::size_t>> parents_;
  std::vector<std::vector<std::size_t>> children_;
  std::size_t num_edges_ = 0;
  std::unordered_map<std::string, std::size_t> index_;  // id -> position
};

}  // namespace nvo::vds
