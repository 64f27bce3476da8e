#include "pegasus/planner.hpp"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.hpp"

namespace nvo::pegasus {

Planner::Planner(const grid::Grid& grid, const ReplicaLocationService& rls,
                 const TransformationCatalog& tc, PlannerConfig config,
                 std::uint64_t seed)
    : grid_(grid), rls_(rls), tc_(tc), config_(std::move(config)), rng_(seed) {}

std::vector<std::size_t> Planner::needed_jobs(
    const vds::Dag& abstract, const std::vector<std::size_t>& topo) const {
  const std::vector<vds::DagNode>& nodes = abstract.nodes();
  // Final products: outputs consumed by no node in the abstract workflow —
  // these are what the request asked for.
  std::unordered_set<std::string_view> consumed;
  for (const vds::DagNode& n : nodes) consumed.insert(n.inputs.begin(), n.inputs.end());

  // Decide keep/prune in reverse topological order: a job is kept iff some
  // output of it is (a) not already replicated and (b) either a final
  // product or consumed by a kept job. "The reduction component assumes
  // that it is more costly to execute a component than to access the
  // results of the component if that data is available."
  std::vector<char> kept(nodes.size(), 0);
  std::unordered_set<std::string_view> inputs_of_kept;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const vds::DagNode& n = nodes[*it];
    bool needed = false;
    for (const std::string& lfn : n.outputs) {
      if (rls_.exists(lfn)) continue;  // someone already materialized it
      const bool is_final = !consumed.count(lfn);
      if (is_final || inputs_of_kept.count(lfn)) {
        needed = true;
        break;
      }
    }
    if (needed) {
      kept[*it] = 1;
      inputs_of_kept.insert(n.inputs.begin(), n.inputs.end());
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (kept[i]) out.push_back(i);
  }
  return out;
}

Expected<vds::Dag> Planner::reduce(const vds::Dag& abstract) const {
  auto order = abstract.topological_indices();
  if (!order.ok()) return order.error();
  return abstract.subgraph(needed_jobs(abstract, order.value()));
}

Status Planner::check_feasibility(const vds::Dag& dag) const {
  // Files produced inside the (reduced) workflow.
  std::unordered_set<std::string_view> produced;
  for (const vds::DagNode& n : dag.nodes()) {
    produced.insert(n.outputs.begin(), n.outputs.end());
  }
  for (const vds::DagNode& n : dag.nodes()) {
    for (const std::string& lfn : n.inputs) {
      if (produced.count(lfn)) continue;
      if (!rls_.exists(lfn)) {
        return Error(ErrorCode::kInfeasible,
                     "input '" + lfn + "' of job " + n.id +
                         " has no replica anywhere in the grid");
      }
    }
  }
  return Status::Ok();
}

Expected<std::vector<Planner::SiteChoice>> Planner::site_choices(
    const std::string& transformation) const {
  // Candidate sites: where the executable is installed AND that the grid
  // knows about.
  std::vector<SiteChoice> candidates;
  for (const std::string& site : tc_.sites_for(transformation)) {
    if (!grid_.site(site)) continue;
    auto entry = tc_.lookup_at(transformation, site);
    candidates.push_back({site, entry.ok() ? entry->executable : std::string()});
  }
  if (candidates.empty()) {
    return Error(ErrorCode::kInfeasible,
                 "transformation '" + transformation +
                     "' is not installed at any grid site");
  }
  return candidates;
}

std::size_t Planner::select_site(const vds::DagNode& node,
                                 const std::vector<SiteChoice>& candidates,
                                 const std::map<std::string, int>& load) {
  // Shared metric helper: this plan's own assignments per slot.
  const auto static_metric = [&](const std::string& site) {
    const auto it = load.find(site);
    const int assigned = it == load.end() ? 0 : it->second;
    const grid::SiteConfig* cfg = grid_.site(site);
    return static_cast<double>(assigned) / std::max(cfg->slots, 1);
  };

  switch (config_.site_policy) {
    case SitePolicy::kRandom:
      return rng_.uniform_index(candidates.size());
    case SitePolicy::kLeastLoaded: {
      std::size_t best = 0;
      double best_metric = 1e300;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const double metric = static_metric(candidates[c].site);
        if (metric < best_metric) {
          best_metric = metric;
          best = c;
        }
      }
      return best;
    }
    case SitePolicy::kMdsRank: {
      // Dynamic information: external pressure from the MDS record plus
      // this plan's own assignments. Sites without a fresh record (dead or
      // stale) are skipped unless no candidate has one.
      std::size_t best = candidates.size();
      double best_metric = 1e300;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        double metric = static_metric(candidates[c].site);
        if (mds_) {
          const auto info = mds_->query(candidates[c].site, mds_now_s_);
          if (!info) continue;  // stale/dead: avoid
          metric += info->pressure();
        }
        if (metric < best_metric) {
          best_metric = metric;
          best = c;
        }
      }
      if (best < candidates.size()) return best;
      // Every record stale: degrade to least-loaded rather than fail.
      std::size_t fallback = 0;
      double fallback_metric = 1e300;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const double metric = static_metric(candidates[c].site);
        if (metric < fallback_metric) {
          fallback_metric = metric;
          fallback = c;
        }
      }
      return fallback;
    }
    case SitePolicy::kDataLocality: {
      // Estimated stage-in seconds from each raw input's nearest replica,
      // plus a load penalty so a hot pool next to the data does not absorb
      // the whole campaign while the rest of the grid idles.
      std::size_t best = 0;
      double best_metric = 1e300;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const std::string& site = candidates[c].site;
        double stage_s = 0.0;
        for (const std::string& lfn : node.inputs) {
          if (grid_.has_file(site, lfn)) continue;  // already local
          const std::size_t n_rep = rls_.lookup_into(lfn, replica_scratch_);
          if (n_rep == 0) continue;  // produced in-workflow: placement-neutral
          double cheapest = 1e300;
          for (std::size_t i = 0; i < n_rep; ++i) {
            cheapest = std::min(
                cheapest, grid_.transfer_seconds(replica_scratch_[i].site, site, lfn));
          }
          stage_s += cheapest;
        }
        double load_units = static_metric(site);
        if (mds_) {
          if (const auto info = mds_->query(site, mds_now_s_)) {
            load_units += info->pressure();
          }
        }
        const double metric = stage_s + config_.locality_load_weight * load_units;
        if (metric < best_metric) {
          best_metric = metric;
          best = c;
        }
      }
      return best;
    }
  }
  return 0;
}

Expected<Replica> Planner::select_replica(const std::string& lfn,
                                          const std::string& exec_site) {
  // lookup_into reuses the planner's scratch vector: concretizing a
  // campaign-sized workflow resolves hundreds of LFNs, and the by-value
  // lookup() paid a vector + string allocations for each.
  const std::size_t n = rls_.lookup_into(lfn, replica_scratch_);
  if (n == 0) {
    return Error(ErrorCode::kNotFound, "no replica of '" + lfn + "'");
  }
  switch (config_.replica_policy) {
    case ReplicaPolicy::kRandom:
      return replica_scratch_[rng_.uniform_index(n)];
    case ReplicaPolicy::kFirst:
      return replica_scratch_.front();
    case ReplicaPolicy::kNearest: {
      std::size_t best = 0;
      double best_s = 1e300;
      for (std::size_t i = 0; i < n; ++i) {
        const double s = grid_.transfer_seconds(replica_scratch_[i].site, exec_site, lfn);
        if (s < best_s) {
          best_s = s;
          best = i;
        }
      }
      return replica_scratch_[best];
    }
  }
  return replica_scratch_.front();
}

Expected<PlanResult> Planner::plan(vds::Dag abstract) {
  const std::size_t abstract_jobs = abstract.num_nodes();

  // Final products of the abstract workflow already materialized are
  // reported as reused (the web service short-circuits on them).
  std::vector<std::string> reused;
  {
    std::unordered_set<std::string_view> consumed;
    for (const vds::DagNode& n : abstract.nodes()) {
      consumed.insert(n.inputs.begin(), n.inputs.end());
    }
    for (const vds::DagNode& n : abstract.nodes()) {
      for (const std::string& lfn : n.outputs) {
        if (!consumed.count(lfn) && rls_.exists(lfn)) reused.push_back(lfn);
      }
    }
  }

  vds::Dag reduced;
  if (config_.reduce) {
    auto order = abstract.topological_indices();
    if (!order.ok()) return order.error();
    const std::vector<std::size_t> kept = needed_jobs(abstract, order.value());
    reduced = std::move(abstract).subgraph(kept);
  } else {
    reduced = std::move(abstract);
  }
  const std::size_t pruned = abstract_jobs - reduced.num_nodes();

  const Status feasible = check_feasibility(reduced);
  if (!feasible.ok()) return feasible.error();

  return concretize(std::move(reduced), abstract_jobs, pruned, std::move(reused));
}

namespace {

/// (destination site, lfn) of a stage-in, for deduplication.
struct StagedKey {
  std::string_view site;
  std::string_view lfn;
  bool operator==(const StagedKey&) const = default;
};
struct StagedKeyHash {
  std::size_t operator()(const StagedKey& k) const {
    const std::hash<std::string_view> h;
    return h(k.site) * 31 + h(k.lfn);
  }
};

}  // namespace

Expected<PlanResult> Planner::concretize(vds::Dag reduced, std::size_t abstract_jobs,
                                         std::size_t pruned,
                                         std::vector<std::string> reused_outputs) {
  PlanResult result;
  result.abstract_jobs = abstract_jobs;
  result.pruned_jobs = pruned;
  result.reused_outputs = std::move(reused_outputs);
  const std::size_t jobs = reduced.num_nodes();

  // --- site selection ---
  std::map<std::string, int> load;
  std::unordered_map<std::string_view, std::vector<SiteChoice>> choices;
  for (std::size_t i = 0; i < jobs; ++i) {
    vds::DagNode& n = reduced.mutable_node_at(i);
    auto cached = choices.find(n.transformation);
    if (cached == choices.end()) {
      auto fresh = site_choices(n.transformation);
      if (!fresh.ok()) return fresh.error();
      cached = choices.emplace(n.transformation, std::move(fresh.value())).first;
    }
    const SiteChoice& choice = cached->second[select_site(n, cached->second, load)];
    n.site = choice.site;
    n.executable = choice.executable;
    ++load[n.site];
  }
  const std::vector<vds::DagNode>& nodes = reduced.nodes();

  // Producer index within the reduced workflow.
  std::unordered_map<std::string_view, std::size_t> produced_by;
  std::unordered_set<std::string_view> consumed;
  for (std::size_t i = 0; i < jobs; ++i) {
    for (const std::string& lfn : nodes[i].outputs) produced_by[lfn] = i;
    consumed.insert(nodes[i].inputs.begin(), nodes[i].inputs.end());
  }
  // Final products in name order: stage-out and registration ids follow it.
  std::vector<std::string_view> final_products;
  for (const auto& [lfn, i] : produced_by) {
    if (!consumed.count(lfn)) final_products.push_back(lfn);
  }
  std::sort(final_products.begin(), final_products.end());

  // Transfer and registration nodes are collected here and appended after
  // the compute nodes, whose indices therefore stay 0..jobs-1; `edges` keeps
  // the order the edges are added in.
  std::vector<vds::DagNode> added;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  const auto add = [&](vds::DagNode node) -> Expected<std::size_t> {
    if (reduced.has_node(node.id)) {
      return Error(ErrorCode::kAlreadyExists, "node " + node.id);
    }
    added.push_back(std::move(node));
    return jobs + added.size() - 1;
  };
  const auto transfer = [](std::string id, std::string_view lfn, const std::string& from,
                           const std::string& to) {
    vds::DagNode tx;
    tx.id = std::move(id);
    tx.type = vds::JobType::kTransfer;
    tx.file = lfn;
    tx.source_site = from;
    tx.site = to;
    return tx;
  };

  // --- stage-in transfers (deduplicated per (site, lfn)) ---
  std::unordered_map<StagedKey, std::size_t, StagedKeyHash> staged;  // -> node index
  std::size_t transfer_counter = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const vds::DagNode& n = nodes[i];
    const std::string& exec_site = n.site;
    std::vector<std::string>* data_inputs = nullptr;
    for (const std::string& lfn : n.inputs) {
      const StagedKey key{exec_site, lfn};
      const auto producer = produced_by.find(lfn);
      if (producer != produced_by.end()) {
        // Produced inside the workflow. If the producer runs elsewhere,
        // insert an inter-site transfer between them.
        const std::string& producer_site = nodes[producer->second].site;
        if (producer_site == exec_site) continue;
        auto it = staged.find(key);
        if (it == staged.end()) {
          auto tx = add(transfer(format("tx_%zu", ++transfer_counter), lfn, producer_site,
                                 exec_site));
          if (!tx.ok()) return tx.error();
          edges.emplace_back(producer->second, tx.value());
          it = staged.emplace(key, tx.value()).first;
        }
        edges.emplace_back(it->second, i);
        continue;
      }
      // Raw input: a ready-on-data edge for dataflow executors, then stage
      // in from a selected replica, unless a copy is already at the
      // execution site.
      if (n.type == vds::JobType::kCompute) {
        if (!data_inputs) data_inputs = &result.data_inputs[n.id];
        data_inputs->push_back(lfn);
      }
      if (grid_.has_file(exec_site, lfn)) continue;
      auto it = staged.find(key);
      if (it == staged.end()) {
        auto replica = select_replica(lfn, exec_site);
        if (!replica.ok()) return replica.error();
        if (replica->site == exec_site) continue;  // registered replica local
        auto tx = add(transfer(format("tx_%zu", ++transfer_counter), lfn, replica->site,
                               exec_site));
        if (!tx.ok()) return tx.error();
        it = staged.emplace(key, tx.value()).first;
      }
      edges.emplace_back(it->second, i);
    }
  }

  // --- stage-out + registration for final products (Fig. 4) ---
  std::size_t register_counter = 0;
  for (const std::string_view lfn : final_products) {
    const std::size_t producer = produced_by.at(lfn);
    std::size_t tail = producer;
    if (config_.stage_out) {
      auto tx = add(transfer(format("tx_out_%zu", ++transfer_counter), lfn,
                             nodes[producer].site, config_.output_site));
      if (!tx.ok()) return tx.error();
      edges.emplace_back(tail, tx.value());
      tail = tx.value();
    }
    if (config_.register_outputs) {
      vds::DagNode reg;
      reg.id = format("reg_%zu", ++register_counter);
      reg.type = vds::JobType::kRegister;
      reg.file = lfn;
      reg.site = config_.stage_out ? config_.output_site : nodes[producer].site;
      auto node = add(std::move(reg));
      if (!node.ok()) return node.error();
      edges.emplace_back(tail, node.value());
    }
  }

  // The concrete DAG is the mapped compute workflow plus the new nodes.
  vds::Dag& concrete = result.concrete;
  concrete = std::move(reduced);
  concrete.reserve(jobs + added.size());
  for (vds::DagNode& node : added) (void)concrete.add_node(std::move(node));
  for (const auto& [parent, child] : edges) concrete.add_edge(parent, child);

  for (const vds::DagNode& n : concrete.nodes()) {
    switch (n.type) {
      case vds::JobType::kCompute:
        ++result.compute_nodes;
        break;
      case vds::JobType::kTransfer:
        ++result.transfer_nodes;
        break;
      case vds::JobType::kRegister:
        ++result.register_nodes;
        break;
    }
  }
  return result;
}

SubmitFiles generate_submit_files(const vds::Dag& concrete) {
  SubmitFiles out;
  std::string dag_text;
  for (const vds::DagNode& n : concrete.nodes()) {
    const std::string& id = n.id;
    std::string sub;
    switch (n.type) {
      case vds::JobType::kCompute: {
        sub += "universe = globus\n";
        sub += format("globusscheduler = %s/jobmanager-condor\n", n.site.c_str());
        sub += format("executable = %s\n",
                      n.executable.empty() ? ("/grid/bin/" + n.transformation).c_str()
                                           : n.executable.c_str());
        std::string args;
        for (const auto& [key, value] : n.args) {
          args += format(" -%s %s", key.c_str(), value.c_str());
        }
        for (const std::string& lfn : n.inputs) args += " -i " + lfn;
        for (const std::string& lfn : n.outputs) args += " -o " + lfn;
        sub += "arguments =" + args + "\n";
        sub += "transfer_input_files = " + join(n.inputs, ",") + "\n";
        break;
      }
      case vds::JobType::kTransfer:
        sub += "universe = globus\n";
        sub += "executable = /grid/bin/globus-url-copy\n";
        sub += format("arguments = gsiftp://%s/%s gsiftp://%s/%s\n",
                      n.source_site.c_str(), n.file.c_str(), n.site.c_str(),
                      n.file.c_str());
        break;
      case vds::JobType::kRegister:
        sub += "universe = scheduler\n";
        sub += "executable = /grid/bin/rls-register\n";
        sub += format("arguments = %s gsiftp://%s/%s\n", n.file.c_str(),
                      n.site.c_str(), n.file.c_str());
        break;
    }
    sub += "log = " + id + ".log\n";
    sub += "queue\n";
    const std::string filename = id + ".sub";
    out.submit[filename] = std::move(sub);
    dag_text += "JOB " + id + " " + filename + "\n";
  }
  for (std::size_t i = 0; i < concrete.num_nodes(); ++i) {
    const auto& kids = concrete.children_of(i);
    if (kids.empty()) continue;
    dag_text += "PARENT " + concrete.node_at(i).id + " CHILD";
    for (const std::size_t kid : kids) dag_text += " " + concrete.node_at(kid).id;
    dag_text += "\n";
  }
  out.dag_file = std::move(dag_text);
  return out;
}

std::size_t commit_execution(const vds::Dag& concrete, const grid::RunReport& report,
                             ReplicaLocationService& rls, grid::Grid& grid) {
  std::size_t registrations = 0;
  for (const grid::NodeResult& r : report.nodes) {
    if (r.outcome != grid::NodeOutcome::kSucceeded) continue;
    const vds::DagNode* n = concrete.node(r.id);
    if (!n) continue;
    // Where the node actually ran: a stolen or rescue-remapped node's
    // products land at the site the executor reports, not the planned one.
    const std::string& exec_site = r.site.empty() ? n->site : r.site;
    switch (n->type) {
      case vds::JobType::kCompute:
        // Products appear in the execution site's storage.
        for (const std::string& lfn : n->outputs) {
          grid.put_file(exec_site, lfn,
                        grid.file_size(lfn).value_or(grid.default_file_bytes));
        }
        break;
      case vds::JobType::kTransfer:
        grid.put_file(n->site, n->file,
                      grid.file_size(n->file).value_or(grid.default_file_bytes));
        break;
      case vds::JobType::kRegister:
        // The new replica is the same bytes as the source the transfer read,
        // so the registration inherits the LFN's recorded content digest —
        // integrity metadata travels with the data as it propagates.
        rls.add(n->file, n->site, "gsiftp://" + n->site + "/" + n->file,
                rls.digest_for(n->file));
        ++registrations;
        break;
    }
  }
  return registrations;
}

Expected<RescueRemap> remap_rescue_sites(vds::Dag& rescue, const grid::Grid& grid,
                                         const std::set<std::string>& dead_sites,
                                         const TransformationCatalog& tc,
                                         const ReplicaLocationService& rls,
                                         const std::string& fallback_source_site) {
  RescueRemap remap;
  if (dead_sites.empty()) return remap;

  const auto alive = [&](const std::string& site) {
    return !site.empty() && dead_sites.count(site) == 0;
  };

  // Pass 1: move compute nodes off dead pools, spreading them over the
  // least-remapped surviving site that has the transformation installed.
  std::map<std::string, int> remap_load;
  std::map<std::string, std::string> producer_site;  // lfn -> (new) producer site
  std::map<std::string, std::size_t> producer_node;  // lfn -> in-rescue producer
  std::vector<std::size_t> moved;                    // remapped compute nodes
  for (std::size_t i = 0; i < rescue.num_nodes(); ++i) {
    vds::DagNode& n = rescue.mutable_node_at(i);
    if (n.type != vds::JobType::kCompute) continue;
    if (!alive(n.site)) {
      std::string best;
      int best_load = 0;
      for (const std::string& site : tc.sites_for(n.transformation)) {
        if (!grid.site(site) || !alive(site)) continue;
        const int l = remap_load[site];
        if (best.empty() || l < best_load) {
          best = site;
          best_load = l;
        }
      }
      if (best.empty()) {
        return Error(ErrorCode::kInfeasible,
                     "rescue: transformation '" + n.transformation + "' of " + n.id +
                         " is not installed at any surviving site");
      }
      n.site = best;
      ++remap_load[best];
      if (const auto entry = tc.lookup_at(n.transformation, n.site); entry.ok()) {
        n.executable = entry->executable;
      }
      ++remap.compute_remapped;
      moved.push_back(i);
    }
    for (const std::string& lfn : n.outputs) {
      producer_site[lfn] = n.site;
      producer_node[lfn] = i;
    }
  }

  // Pass 2: re-point transfer endpoints. Destinations follow the (possibly
  // remapped) consumer; dead sources fall through the replica chain.
  for (std::size_t i = 0; i < rescue.num_nodes(); ++i) {
    vds::DagNode& n = rescue.mutable_node_at(i);
    if (n.type != vds::JobType::kTransfer) continue;
    bool changed = false;
    if (!alive(n.site)) {
      // A stage-in's destination is wherever its consumer now runs.
      for (const std::size_t child : rescue.children_of(i)) {
        const vds::DagNode& c = rescue.node_at(child);
        if (c.type == vds::JobType::kCompute && alive(c.site)) {
          n.site = c.site;
          changed = true;
          break;
        }
      }
      if (!alive(n.site)) {
        return Error(ErrorCode::kInfeasible,
                     "rescue: transfer " + n.id + " destination '" + n.site +
                         "' is dead and no surviving consumer names a new one");
      }
    }
    if (!alive(n.source_site)) {
      std::string src;
      // (a) a surviving registered replica;
      for (const Replica& rep : rls.lookup(n.file)) {
        if (alive(rep.site) && grid.site(rep.site)) {
          src = rep.site;
          break;
        }
      }
      // (b) any surviving grid copy (e.g. committed by an earlier round);
      if (src.empty()) {
        for (const std::string& site : grid.locations(n.file)) {
          if (alive(site)) {
            src = site;
            break;
          }
        }
      }
      // (c) the in-rescue producer, which pass 1 moved to a live pool;
      if (src.empty()) {
        const auto it = producer_site.find(n.file);
        if (it != producer_site.end() && alive(it->second)) src = it->second;
      }
      // (d) the submit host re-stages from its own copy.
      if (src.empty()) src = fallback_source_site;
      n.source_site = src;
      changed = true;
    }
    if (changed) ++remap.transfers_retargeted;
  }

  // Pass 3: re-stage orphaned inputs. A stage-in that completed on a pool
  // before it died left its replica in the wreckage — the remapped consumer
  // needs the bytes moved again, to wherever it runs now. Synthesize one
  // transfer per missing (site, lfn), sourced through the same replica chain
  // as pass 2, and dedup across consumers sharing an input.
  std::set<std::pair<std::string, std::string>> provided;  // (dest site, lfn)
  for (const vds::DagNode& n : rescue.nodes()) {
    if (n.type == vds::JobType::kTransfer) provided.insert({n.site, n.file});
  }
  std::size_t restage_seq = 0;
  for (const std::size_t i : moved) {
    // Copied: adding transfer nodes below may move the DAG's nodes.
    const std::string id = rescue.node_at(i).id;
    const std::string dest = rescue.node_at(i).site;
    const std::vector<std::string> inputs = rescue.node_at(i).inputs;
    for (const std::string& lfn : inputs) {
      if (grid.has_file(dest, lfn)) continue;
      if (provided.count({dest, lfn})) continue;
      std::string src;
      for (const Replica& rep : rls.lookup(lfn)) {
        if (alive(rep.site) && grid.site(rep.site)) {
          src = rep.site;
          break;
        }
      }
      if (src.empty()) {
        for (const std::string& site : grid.locations(lfn)) {
          if (alive(site)) {
            src = site;
            break;
          }
        }
      }
      const auto prod = producer_node.find(lfn);
      if (src.empty() && prod != producer_node.end() &&
          alive(producer_site[lfn])) {
        src = producer_site[lfn];
      }
      if (src.empty()) src = fallback_source_site;
      if (src == dest) continue;  // already local once the producer commits
      vds::DagNode tx;
      tx.id = "restage_" + std::to_string(restage_seq++) + "_" + lfn;
      tx.type = vds::JobType::kTransfer;
      tx.file = lfn;
      tx.site = dest;
      tx.source_site = src;
      const std::string tx_id = tx.id;
      (void)rescue.add_node(std::move(tx));
      if (prod != producer_node.end()) {
        (void)rescue.add_edge(rescue.node_at(prod->second).id, tx_id);
      }
      (void)rescue.add_edge(tx_id, id);
      provided.insert({dest, lfn});
      ++remap.inputs_restaged;
    }
  }
  return remap;
}

}  // namespace nvo::pegasus
