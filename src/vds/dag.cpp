#include "vds/dag.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace nvo::vds {

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

void Dag::reserve(std::size_t n) {
  nodes_.reserve(n);
  parents_.reserve(n);
  children_.reserve(n);
  index_.reserve(n);
}

std::size_t Dag::index_of(const std::string& id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? npos : it->second;
}

Status Dag::add_node(DagNode node) {
  if (!index_.emplace(node.id, nodes_.size()).second) {
    return Error(ErrorCode::kAlreadyExists, "node " + node.id);
  }
  nodes_.push_back(std::move(node));
  parents_.emplace_back();
  children_.emplace_back();
  return Status::Ok();
}

Status Dag::add_edge(const std::string& parent, const std::string& child) {
  const std::size_t p = index_of(parent);
  if (p == npos) return Error(ErrorCode::kNotFound, "node " + parent);
  const std::size_t c = index_of(child);
  if (c == npos) return Error(ErrorCode::kNotFound, "node " + child);
  add_edge(p, c);
  return Status::Ok();
}

void Dag::add_edge(std::size_t parent, std::size_t child) {
  std::vector<std::size_t>& kids = children_[parent];
  if (std::find(kids.begin(), kids.end(), child) != kids.end()) return;
  kids.push_back(child);
  parents_[child].push_back(parent);
  ++num_edges_;
}

const DagNode* Dag::node(const std::string& id) const {
  const std::size_t i = index_of(id);
  return i == npos ? nullptr : &nodes_[i];
}

DagNode* Dag::mutable_node(const std::string& id) {
  const std::size_t i = index_of(id);
  return i == npos ? nullptr : &nodes_[i];
}

std::vector<std::string> Dag::ids_of(const std::vector<std::size_t>& indices) const {
  std::vector<std::string> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(nodes_[i].id);
  return out;
}

std::vector<std::string> Dag::node_ids() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const DagNode& n : nodes_) out.push_back(n.id);
  return out;
}

std::vector<std::string> Dag::parents(const std::string& id) const {
  const std::size_t i = index_of(id);
  return i == npos ? std::vector<std::string>{} : ids_of(parents_[i]);
}

std::vector<std::string> Dag::children(const std::string& id) const {
  const std::size_t i = index_of(id);
  return i == npos ? std::vector<std::string>{} : ids_of(children_[i]);
}

std::vector<std::string> Dag::roots() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (parents_[i].empty()) out.push_back(nodes_[i].id);
  }
  return out;
}

std::vector<std::string> Dag::leaves() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (children_[i].empty()) out.push_back(nodes_[i].id);
  }
  return out;
}

Dag Dag::subgraph(const std::vector<std::size_t>& picks) const& {
  Dag out;
  out.reserve(picks.size());
  for (const std::size_t i : picks) (void)out.add_node(nodes_[i]);
  out.add_induced_edges(*this, picks);
  return out;
}

Dag Dag::subgraph(const std::vector<std::size_t>& picks) && {
  Dag out;
  out.reserve(picks.size());
  for (const std::size_t i : picks) (void)out.add_node(std::move(nodes_[i]));
  out.add_induced_edges(*this, picks);
  return out;
}

void Dag::add_induced_edges(const Dag& from, const std::vector<std::size_t>& picks) {
  std::vector<std::size_t> position(from.nodes_.size(), npos);
  for (std::size_t j = 0; j < picks.size(); ++j) position[picks[j]] = j;
  for (std::size_t j = 0; j < picks.size(); ++j) {
    for (const std::size_t child : from.children_[picks[j]]) {
      if (position[child] != npos) add_edge(j, position[child]);
    }
  }
}

Expected<std::vector<std::size_t>> Dag::topological_indices() const {
  std::vector<std::size_t> in_degree(nodes_.size());
  // `order` doubles as the FIFO ready queue: entries before `head` are
  // emitted, the rest are ready and waiting.
  std::vector<std::size_t> order;
  order.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    in_degree[i] = parents_[i].size();
    if (in_degree[i] == 0) order.push_back(i);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::size_t child : children_[order[head]]) {
      if (--in_degree[child] == 0) order.push_back(child);
    }
  }
  if (order.size() != nodes_.size()) {
    return Error(ErrorCode::kInvalidArgument, "workflow graph contains a cycle");
  }
  return order;
}

Expected<std::vector<std::string>> Dag::topological_order() const {
  auto order = topological_indices();
  if (!order.ok()) return order.error();
  return ids_of(order.value());
}

std::string Dag::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const DagNode& n = nodes_[i];
    out += format("%s [%s", n.id.c_str(), nvo::vds::to_string(n.type));
    if (!n.transformation.empty()) out += " " + n.transformation;
    if (!n.site.empty()) out += " @" + n.site;
    out += "]";
    if (!n.inputs.empty()) out += " in:" + join(n.inputs, ",");
    if (!n.outputs.empty()) out += " out:" + join(n.outputs, ",");
    if (!children_[i].empty()) out += " -> " + join(ids_of(children_[i]), ",");
    out += "\n";
  }
  return out;
}

}  // namespace nvo::vds
