#include "vds/dag.hpp"

#include <algorithm>
#include <deque>

#include "common/strings.hpp"

namespace nvo::vds {

const std::vector<std::string> Dag::kEmpty;

const char* to_string(JobType t) {
  switch (t) {
    case JobType::kCompute:
      return "compute";
    case JobType::kTransfer:
      return "transfer";
    case JobType::kRegister:
      return "register";
  }
  return "?";
}

Status Dag::add_node(DagNode node) {
  if (index_.count(node.id)) {
    return Error(ErrorCode::kAlreadyExists, "node " + node.id);
  }
  index_[node.id] = nodes_.size();
  parents_[node.id];
  children_[node.id];
  nodes_.push_back(std::move(node));
  return Status::Ok();
}

Status Dag::add_edge(const std::string& parent, const std::string& child) {
  if (!index_.count(parent)) return Error(ErrorCode::kNotFound, "node " + parent);
  if (!index_.count(child)) return Error(ErrorCode::kNotFound, "node " + child);
  auto& kids = children_[parent];
  if (std::find(kids.begin(), kids.end(), child) != kids.end()) return Status::Ok();
  kids.push_back(child);
  parents_[child].push_back(parent);
  return Status::Ok();
}

bool Dag::has_node(const std::string& id) const { return index_.count(id) != 0; }

const DagNode* Dag::node(const std::string& id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &nodes_[it->second];
}

DagNode* Dag::mutable_node(const std::string& id) {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &nodes_[it->second];
}

std::size_t Dag::num_edges() const {
  std::size_t n = 0;
  for (const auto& [id, kids] : children_) n += kids.size();
  return n;
}

std::vector<std::string> Dag::node_ids() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const DagNode& n : nodes_) out.push_back(n.id);
  return out;
}

const std::vector<std::string>& Dag::parents(const std::string& id) const {
  const auto it = parents_.find(id);
  return it == parents_.end() ? kEmpty : it->second;
}

const std::vector<std::string>& Dag::children(const std::string& id) const {
  const auto it = children_.find(id);
  return it == children_.end() ? kEmpty : it->second;
}

std::vector<std::string> Dag::roots() const {
  std::vector<std::string> out;
  for (const DagNode& n : nodes_) {
    if (parents(n.id).empty()) out.push_back(n.id);
  }
  return out;
}

std::vector<std::string> Dag::leaves() const {
  std::vector<std::string> out;
  for (const DagNode& n : nodes_) {
    if (children(n.id).empty()) out.push_back(n.id);
  }
  return out;
}

Expected<std::vector<std::string>> Dag::topological_order() const {
  std::map<std::string, std::size_t> in_degree;
  for (const DagNode& n : nodes_) in_degree[n.id] = parents(n.id).size();
  std::deque<std::string> ready;
  for (const DagNode& n : nodes_) {
    if (in_degree[n.id] == 0) ready.push_back(n.id);
  }
  std::vector<std::string> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const std::string id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const std::string& child : children(id)) {
      if (--in_degree[child] == 0) ready.push_back(child);
    }
  }
  if (order.size() != nodes_.size()) {
    return Error(ErrorCode::kInvalidArgument, "workflow graph contains a cycle");
  }
  return order;
}

std::string Dag::to_string() const {
  std::string out;
  for (const DagNode& n : nodes_) {
    out += format("%s [%s", n.id.c_str(), nvo::vds::to_string(n.type));
    if (!n.transformation.empty()) out += " " + n.transformation;
    if (!n.site.empty()) out += " @" + n.site;
    out += "]";
    if (!n.inputs.empty()) out += " in:" + join(n.inputs, ",");
    if (!n.outputs.empty()) out += " out:" + join(n.outputs, ",");
    const auto& kids = children(n.id);
    if (!kids.empty()) out += " -> " + join(kids, ",");
    out += "\n";
  }
  return out;
}

}  // namespace nvo::vds
