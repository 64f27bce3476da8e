#include "vds/chimera.hpp"

#include <algorithm>
#include <set>

namespace nvo::vds {

Status VirtualDataCatalog::define_transformation(Transformation tr) {
  if (transformations_.count(tr.name)) {
    return Error(ErrorCode::kAlreadyExists, "transformation " + tr.name);
  }
  std::set<std::string> seen;
  for (const FormalArg& a : tr.args) {
    if (!seen.insert(a.name).second) {
      return Error(ErrorCode::kInvalidArgument,
                   "duplicate formal argument '" + a.name + "' in TR " + tr.name);
    }
  }
  TransformationEntry entry;
  entry.by_name.resize(tr.args.size());
  for (std::size_t i = 0; i < entry.by_name.size(); ++i) entry.by_name[i] = i;
  const auto by_formal_name = [&](std::size_t a, std::size_t b) {
    return tr.args[a].name < tr.args[b].name;
  };
  std::sort(entry.by_name.begin(), entry.by_name.end(), by_formal_name);
  const std::string name = tr.name;
  entry.tr = std::move(tr);
  transformations_.emplace(name, std::move(entry));
  return Status::Ok();
}

const FormalArg* VirtualDataCatalog::find_formal(const TransformationEntry& entry,
                                                 const std::string& name) {
  const auto it = std::lower_bound(
      entry.by_name.begin(), entry.by_name.end(), name,
      [&](std::size_t i, const std::string& key) { return entry.tr.args[i].name < key; });
  if (it == entry.by_name.end() || entry.tr.args[*it].name != name) return nullptr;
  return &entry.tr.args[*it];
}

Status VirtualDataCatalog::define_derivation(Derivation dv) {
  if (derivations_.count(dv.name)) {
    return Error(ErrorCode::kAlreadyExists, "derivation " + dv.name);
  }
  const auto tr_it = transformations_.find(dv.transformation);
  if (tr_it == transformations_.end()) {
    return Error(ErrorCode::kNotFound,
                 "DV " + dv.name + " references unknown TR " + dv.transformation);
  }
  const TransformationEntry& entry = tr_it->second;
  // Every binding names a formal; file directions match.
  for (const auto& [formal_name, actual] : dv.bindings) {
    const FormalArg* formal = find_formal(entry, formal_name);
    if (!formal) {
      return Error(ErrorCode::kInvalidArgument,
                   "DV " + dv.name + " binds unknown argument '" + formal_name + "'");
    }
    if (actual.is_file && actual.direction != formal->direction) {
      return Error(ErrorCode::kInvalidArgument,
                   "DV " + dv.name + " direction mismatch on '" + formal_name + "'");
    }
    if (!actual.is_file && formal->direction == Direction::kOut) {
      return Error(ErrorCode::kInvalidArgument,
                   "DV " + dv.name + " binds scalar to out argument '" + formal_name +
                       "'");
    }
  }
  // Every formal is bound. Each binding named a distinct formal, so equal
  // counts mean full coverage; otherwise report the first unbound formal in
  // declaration order.
  if (dv.bindings.size() != entry.tr.args.size()) {
    for (const FormalArg& formal : entry.tr.args) {
      if (!dv.bindings.count(formal.name)) {
        return Error(ErrorCode::kInvalidArgument,
                     "DV " + dv.name + " leaves argument '" + formal.name + "' unbound");
      }
    }
  }
  // Single-producer rule.
  const std::vector<std::string> outputs = dv.output_files();
  for (const std::string& lfn : outputs) {
    const auto it = producer_of_.find(lfn);
    if (it != producer_of_.end()) {
      return Error(ErrorCode::kAlreadyExists,
                   "logical file '" + lfn + "' already produced by " + it->second->name);
    }
  }
  const std::string name = dv.name;
  const Derivation* stored = &derivations_.emplace(name, std::move(dv)).first->second;
  for (const std::string& lfn : outputs) producer_of_[lfn] = stored;
  return Status::Ok();
}

Status VirtualDataCatalog::ingest(const VdlDocument& doc) {
  for (const Transformation& tr : doc.transformations) {
    const Status s = define_transformation(tr);
    if (!s.ok()) return s;
  }
  for (const Derivation& dv : doc.derivations) {
    const Status s = define_derivation(dv);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

const Transformation* VirtualDataCatalog::transformation(const std::string& name) const {
  const auto it = transformations_.find(name);
  return it == transformations_.end() ? nullptr : &it->second.tr;
}

const Derivation* VirtualDataCatalog::derivation(const std::string& name) const {
  const auto it = derivations_.find(name);
  return it == derivations_.end() ? nullptr : &it->second;
}

const Derivation* VirtualDataCatalog::producer(const std::string& logical_file) const {
  const auto it = producer_of_.find(logical_file);
  return it == producer_of_.end() ? nullptr : it->second;
}

Expected<Dag> compose_abstract_workflow(const VirtualDataCatalog& catalog,
                                        const std::vector<std::string>& requests) {
  // Breadth-first walk backwards from the requested files through their
  // producing derivations. `order` is the walk's FIFO queue, so a
  // derivation's position in it is its node index.
  std::vector<const Derivation*> order;
  std::unordered_map<const Derivation*, std::size_t> index;
  const auto enqueue = [&](const Derivation* dv) {
    const auto [it, fresh] = index.emplace(dv, order.size());
    if (fresh) order.push_back(dv);
    return it->second;
  };
  for (const std::string& lfn : requests) {
    const Derivation* dv = catalog.producer(lfn);
    if (!dv) {
      return Error(ErrorCode::kNotFound,
                   "no derivation produces requested file '" + lfn + "'");
    }
    enqueue(dv);
  }

  Dag dag;
  // Dependency edges via file flow, producer -> consumer, in the order of
  // the consumer's node and then its inputs.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Derivation* dv = order[head];
    DagNode node;
    node.id = dv->name;
    node.type = JobType::kCompute;
    node.transformation = dv->transformation;
    for (const auto& [formal, actual] : dv->bindings) {
      if (!actual.is_file) {
        node.args.emplace_hint(node.args.end(), formal, actual.value);
      } else if (actual.direction == Direction::kIn) {
        node.inputs.push_back(actual.value);
      } else {
        node.outputs.push_back(actual.value);
      }
    }
    for (const std::string& input : node.inputs) {
      // No producer: a raw input — fine, feasibility checks later.
      if (const Derivation* upstream = catalog.producer(input)) {
        edges.emplace_back(enqueue(upstream), head);
      }
    }
    const Status s = dag.add_node(std::move(node));
    if (!s.ok()) return s.error();
  }
  for (const auto& [producer, consumer] : edges) dag.add_edge(producer, consumer);

  // A derivation set with circular file dependencies is not a workflow.
  auto topo = dag.topological_indices();
  if (!topo.ok()) return topo.error();
  return dag;
}

std::vector<std::string> raw_inputs(const Dag& dag) {
  std::set<std::string> produced;
  for (const DagNode& n : dag.nodes()) {
    produced.insert(n.outputs.begin(), n.outputs.end());
  }
  std::set<std::string> raw;
  for (const DagNode& n : dag.nodes()) {
    for (const std::string& lfn : n.inputs) {
      if (!produced.count(lfn)) raw.insert(lfn);
    }
  }
  return {raw.begin(), raw.end()};
}

}  // namespace nvo::vds
