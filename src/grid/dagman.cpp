#include "grid/dagman.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>

#include "common/strings.hpp"

namespace nvo::grid {

const NodeResult* RunReport::result_for(const std::string& id) const {
  for (const NodeResult& r : nodes) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// DagManSim
// ---------------------------------------------------------------------------

DagManSim::DagManSim(const Grid& grid, JobCostModel cost, FailureModel failure,
                     std::uint64_t seed)
    : grid_(grid), cost_(std::move(cost)), failure_(failure), seed_(seed) {}

namespace {

struct SimEvent {
  enum class Kind {
    kCompletion,    ///< a node attempt finished
    kReadyWakeup,   ///< data-readiness wakeup: dispatch the node now
    kSiteOutage,    ///< a pool drops off the grid (target is a site index)
  };
  double time = 0.0;
  std::size_t sequence = 0;  // tie-break for determinism
  std::size_t target = 0;    // node index, or site index for kSiteOutage
  Kind kind = Kind::kCompletion;
  bool operator>(const SimEvent& other) const {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

/// Per-(node, attempt) failure draw, independent of event order: the same
/// seed gives every attempt of every node the same verdict whether the
/// schedule is phase-barriered or pipelined on data arrivals. (A shared
/// sequential generator would entangle outcomes with completion order and
/// break the byte-identical-science guarantee across execution modes.)
/// FNV-1a over the node id, attempt index, and seed, finalized splitmix64-
/// style for uniformity.
bool attempt_fails(std::uint64_t seed, const std::string& node_id, int attempt,
                   double rate) {
  if (rate <= 0.0) return false;
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (const char c : node_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= static_cast<std::uint64_t>(attempt);
  h *= 1099511628211ull;
  h += 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

/// One run's view of a site: a grid pool, or any other name a transfer
/// endpoint or an outage mentions (those have no config and no slots).
struct SiteState {
  std::string name;
  const SiteConfig* config = nullptr;
  int free_slots = 0;
  bool dead = false;
  /// Compute nodes waiting for a slot here, FIFO.
  std::deque<std::size_t> queue{};
  /// Busy seconds billed here this run; `billed` once any attempt started.
  double busy = 0.0;
  bool billed = false;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

Expected<RunReport> DagManSim::run(const vds::Dag& dag) {
  if (auto order = dag.topological_indices(); !order.ok()) return order.error();
  const std::vector<vds::DagNode>& nodes = dag.nodes();
  const std::size_t n_nodes = nodes.size();

  RunReport report;
  report.jobs_total = n_nodes;

  // Sites by index: the grid's pools first, in grid order.
  std::vector<SiteState> sites;
  for (const SiteConfig& s : grid_.sites()) {
    sites.push_back({s.name, &s, s.slots, dead_sites_.count(s.name) != 0});
  }
  const std::size_t pools = sites.size();
  const auto site_index = [&](const std::string& name) {
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (sites[s].name == name) return s;
    }
    sites.push_back({name, nullptr, 0, dead_sites_.count(name) != 0});
    return sites.size() - 1;
  };

  // Validate sites and classify nodes up front. `site_of` is a node's
  // planned site (compute) or destination (transfer), `source_of` a
  // transfer's origin.
  std::vector<std::size_t> site_of(n_nodes, kNone);
  std::vector<std::size_t> source_of(n_nodes, kNone);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const vds::DagNode& n = nodes[i];
    switch (n.type) {
      case vds::JobType::kCompute:
        ++report.compute_jobs;
        site_of[i] = site_index(n.site);
        if (site_of[i] >= pools) {
          return Error(ErrorCode::kInvalidArgument,
                       "compute node " + n.id + " mapped to unknown site '" + n.site +
                           "'");
        }
        break;
      case vds::JobType::kTransfer:
        ++report.transfer_jobs;
        site_of[i] = site_index(n.site);
        source_of[i] = site_index(n.source_site);
        break;
      case vds::JobType::kRegister:
        ++report.register_jobs;
        break;
    }
  }
  // The steal scan visits pools in name order.
  std::vector<std::size_t> pools_by_name(pools);
  for (std::size_t s = 0; s < pools; ++s) pools_by_name[s] = s;
  std::sort(pools_by_name.begin(), pools_by_name.end(),
            [&](std::size_t a, std::size_t b) { return sites[a].name < sites[b].name; });

  std::vector<NodeResult> results(n_nodes);
  std::vector<std::size_t> waiting_parents(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    results[i].id = nodes[i].id;
    waiting_parents[i] = dag.parents_of(i).size();
  }
  // Where each compute attempt runs: the planned pool, or a thief's.
  std::vector<std::size_t> exec_site(site_of);
  // Ready-on-data times by node; nodes absent from ready_ never wait.
  std::vector<double> ready_at(n_nodes, -std::numeric_limits<double>::infinity());
  for (const auto& [id, at_s] : ready_) {
    if (const std::size_t i = dag.index_of(id); i != vds::Dag::npos) ready_at[i] = at_s;
  }

  std::priority_queue<SimEvent, std::vector<SimEvent>, std::greater<>> events;
  std::size_t sequence = 0;
  double now = 0.0;

  // Scripted whole-pool outages. Sites already latched dead by a previous
  // run() (an earlier rescue round) stay dead from t=0; the rest are parked
  // as outage events at their scripted second.
  for (const auto& [site_name, at_s] : failure_.site_outage_at_s) {
    const std::size_t s = site_index(site_name);
    if (sites[s].dead) {
      sites[s].free_slots = 0;
      continue;
    }
    events.push(SimEvent{at_s, ++sequence, s, SimEvent::Kind::kSiteOutage});
  }

  auto file_bytes = [&](const std::string& lfn) {
    return grid_.file_size(lfn).value_or(grid_.default_file_bytes);
  };

  // `exec` is the site index the node actually runs at — normally its
  // planned site, but a stolen node runs (and is billed) at the thief pool.
  auto duration_of = [&](std::size_t i, std::size_t exec) -> double {
    const vds::DagNode& n = nodes[i];
    switch (n.type) {
      case vds::JobType::kCompute: {
        const double ref = cost_.compute_seconds ? cost_.compute_seconds(n)
                                                 : cost_.compute_reference_seconds;
        return ref / std::max(sites[exec].config->speed_factor, 1e-6);
      }
      case vds::JobType::kTransfer:
        return grid_.transfer_seconds(n.source_site, n.site, n.file);
      case vds::JobType::kRegister:
        return cost_.register_seconds;
    }
    return 0.0;
  };

  // One attempt's bill: busy time and queue delay at a compute node's pool,
  // WAN bytes for a transfer between distinct sites. Returns the delay
  // before the attempt's duration starts.
  auto bill_attempt = [&](std::size_t i, double d) -> double {
    const vds::DagNode& n = nodes[i];
    if (n.type == vds::JobType::kCompute) {
      SiteState& site = sites[exec_site[i]];
      site.busy += d;
      site.billed = true;
      return site.config->queue_delay_s;
    }
    if (n.type == vds::JobType::kTransfer && n.source_site != n.site) {
      report.wan_bytes += file_bytes(n.file);
    }
    return 0.0;
  };

  auto start_node = [&](std::size_t i, std::size_t thief = kNone,
                        double migration_delay = 0.0) {
    NodeResult& r = results[i];
    if (r.attempts == 0) r.start_seconds = now;
    ++r.attempts;
    if (thief != kNone) {
      exec_site[i] = thief;
      r.site = sites[thief].name;
    } else {
      r.site = nodes[i].site;
    }
    const double d = duration_of(i, exec_site[i]);
    const double delay = migration_delay + bill_attempt(i, d);
    events.push(SimEvent{now + delay + d, ++sequence, i});
  };

  // Deadline gate at dispatch: a compute node whose remaining budget
  // cannot cover queue delay + estimated duration is terminally expired —
  // no attempt is issued, no slot taken, descendants stay blocked. Idempotent
  // (a node may be re-examined from a queue or a steal scan); the verdict
  // can only tighten because `now` is monotone.
  std::vector<char> expired(n_nodes, 0);
  auto expire_if_due = [&](std::size_t i) -> bool {
    if (deadline_s_ <= 0.0) return false;
    if (nodes[i].type != vds::JobType::kCompute) return false;
    const double queue_delay = sites[site_of[i]].config->queue_delay_s;
    if (now + queue_delay + duration_of(i, site_of[i]) <= deadline_s_) return false;
    if (!expired[i]) {
      expired[i] = 1;
      ++report.jobs_expired;
    }
    return true;
  };

  auto dispatch_now = [&](std::size_t i) {
    if (nodes[i].type == vds::JobType::kCompute) {
      if (expire_if_due(i)) return;
      // A pool that is gone accepts nothing: the node is left unstarted
      // (reported skipped) for a rescue round to re-map.
      SiteState& site = sites[site_of[i]];
      if (site.dead) return;
      if (site.free_slots > 0) {
        --site.free_slots;
        start_node(i);
      } else {
        site.queue.push_back(i);
      }
    } else {
      if (nodes[i].type == vds::JobType::kTransfer &&
          (sites[site_of[i]].dead || sites[source_of[i]].dead)) {
        return;  // no endpoint to stream to/from; left skipped for rescue
      }
      start_node(i);
    }
  };

  // Parent-satisfied nodes still wait for their data: a node with a ready
  // time in the future is parked as a wakeup event instead of being handed
  // to the site queue (where it would start the moment a slot freed,
  // before its inputs exist).
  auto dispatch = [&](std::size_t i) {
    if (ready_at[i] > now) {
      events.push(SimEvent{ready_at[i], ++sequence, i, SimEvent::Kind::kReadyWakeup});
      return;
    }
    dispatch_now(i);
  };

  // Work stealing: a freed slot at `thief` with no local backlog pulls the
  // newest queued node from the most backlogged other pool (newest = the
  // entry a busy pool would reach last, so stealing helps the tail without
  // reordering the head). Returns true when a node was migrated onto the
  // already-held slot.
  auto steal_into = [&](std::size_t thief) -> bool {
    if (!work_stealing_) return false;
    std::size_t victim = kNone;
    std::size_t stolen = kNone;
    std::size_t best_backlog = 0;
    for (const std::size_t s : pools_by_name) {
      const std::deque<std::size_t>& q = sites[s].queue;
      if (s == thief || q.empty() || q.size() <= best_backlog) continue;
      // Newest-first scan for a node the thief can actually run.
      for (auto it = q.rbegin(); it != q.rend(); ++it) {
        if (expire_if_due(*it)) continue;  // dropped for good at pop time
        if (steal_filter_ && !steal_filter_(nodes[*it], sites[thief].name)) continue;
        victim = s;
        stolen = *it;
        best_backlog = q.size();
        break;
      }
    }
    if (stolen == kNone) return false;
    std::deque<std::size_t>& q = sites[victim].queue;
    q.erase(std::find(q.begin(), q.end(), stolen));
    ++report.stolen_jobs;
    // The staged inputs sit at the victim pool; migrating the job moves
    // them over the inter-site link before the attempt can start.
    double migration_s = 0.0;
    for (const std::string& lfn : nodes[stolen].inputs) {
      migration_s += grid_.transfer_seconds(sites[victim].name, sites[thief].name, lfn);
      report.wan_bytes += file_bytes(lfn);
    }
    start_node(stolen, thief, migration_s);
    return true;
  };

  // Seed with roots.
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (waiting_parents[i] == 0) dispatch(i);
  }
  // A pool that starts idle would otherwise never steal — it only re-enters
  // the loop on its own completions, and it has none. Let every pool with
  // leftover slots pull from backlogged queues before the clock starts.
  if (work_stealing_) {
    for (std::size_t s = 0; s < pools; ++s) {
      if (sites[s].dead) continue;
      while (sites[s].free_slots > 0 && sites[s].queue.empty() && steal_into(s)) {
        --sites[s].free_slots;
      }
    }
  }

  while (!events.empty()) {
    // Cooperative cancellation: observed between events, never mid-node.
    // Everything still pending — queued nodes, parked wakeups, in-flight
    // completions — is dropped with the run-local state (slots, queues and
    // events are locals, so nothing survives the return), and completions
    // already recorded stand. The caller sees a partial report.
    if (cancel_.cancelled()) {
      report.cancelled = true;
      break;
    }
    const SimEvent ev = events.top();
    events.pop();
    now = ev.time;
    if (ev.kind == SimEvent::Kind::kReadyWakeup) {
      dispatch_now(ev.target);
      continue;
    }
    if (ev.kind == SimEvent::Kind::kSiteOutage) {
      // The pool is gone: no free slots, and its queued-but-unstarted jobs
      // have nowhere to run (they stay skipped; a rescue round re-maps
      // them). Attempts in flight there fail when their completion fires.
      SiteState& site = sites[ev.target];
      dead_sites_.insert(site.name);
      site.dead = true;
      report.sites_lost.push_back(site.name);
      site.free_slots = 0;
      site.queue.clear();
      continue;
    }
    const std::size_t i = ev.target;
    const vds::DagNode& n = nodes[i];
    NodeResult& r = results[i];

    // An attempt whose pool died under it (or whose transfer endpoint
    // vanished) fails terminally: there is no pool to resubmit to, so the
    // DAGMan retry policy does not apply and the slot dies with the pool.
    const bool lost_site =
        n.type == vds::JobType::kCompute
            ? sites[exec_site[i]].dead
            : n.type == vds::JobType::kTransfer &&
                  (sites[site_of[i]].dead || sites[source_of[i]].dead);
    if (lost_site) {
      r.end_seconds = now;
      r.outcome = NodeOutcome::kFailed;
      ++report.jobs_failed;
      if (on_node_) {
        if (const Status s = on_node_(r); !s.ok()) return s.error();
      }
      continue;
    }

    // Outcome draw, keyed on (node, lifetime draw index) so it is
    // event-order invariant: barriered and pipelined schedules reach
    // identical verdicts, while rescue rounds re-running a node draw fresh.
    bool failed = failure_.permanent_failures.count(n.id) != 0;
    if (!failed) {
      const double rate = n.type == vds::JobType::kTransfer
                              ? failure_.transfer_failure_rate
                              : n.type == vds::JobType::kCompute
                                    ? failure_.compute_failure_rate
                                    : 0.0;
      failed = attempt_fails(seed_, n.id, ++draw_count_[n.id], rate);
    }

    if (failed && r.attempts <= failure_.max_retries) {
      ++report.retries;
      ++r.attempts;
      // Retry in place: the slot is still held (DAGMan resubmits).
      const double d = duration_of(i, exec_site[i]);
      const double delay = bill_attempt(i, d);  // a transfer's stream restarts
      events.push(SimEvent{now + delay + d, ++sequence, i});
      continue;
    }

    // Slot release: hand it to the local queue first (skipping nodes whose
    // budget expired while they waited), then (when enabled) to the most
    // backlogged other pool's tail, else free it.
    if (n.type == vds::JobType::kCompute) {
      SiteState& site = sites[exec_site[i]];
      std::size_t next = kNone;
      while (!site.queue.empty()) {
        const std::size_t cand = site.queue.front();
        site.queue.pop_front();
        if (!expire_if_due(cand)) {
          next = cand;
          break;
        }
      }
      if (next != kNone) {
        start_node(next);  // slot handed directly to the next queued job
      } else if (!steal_into(exec_site[i])) {
        ++sites[exec_site[i]].free_slots;
      }
    }

    r.end_seconds = now;
    if (failed) {
      r.outcome = NodeOutcome::kFailed;
      ++report.jobs_failed;
      if (on_node_) {
        if (const Status s = on_node_(r); !s.ok()) return s.error();
      }
      continue;  // descendants stay blocked -> reported skipped
    }
    r.outcome = NodeOutcome::kSucceeded;
    ++report.jobs_succeeded;
    if (on_node_) {
      // The completion is final before the callback fires, so a journal
      // write captures exactly the state a resume must not redo — and an
      // injected kill here loses only work the journal already holds.
      if (const Status s = on_node_(r); !s.ok()) return s.error();
    }
    for (const std::size_t child : dag.children_of(i)) {
      if (--waiting_parents[child] == 0) dispatch(child);
    }
  }

  report.makespan_seconds = now;
  for (const SiteState& site : sites) {
    if (site.billed) report.site_busy_seconds[site.name] = site.busy;
  }
  for (const NodeResult& r : results) {
    if (r.outcome == NodeOutcome::kSkipped) ++report.jobs_skipped;
  }
  report.nodes = std::move(results);
  report.workflow_succeeded = report.jobs_succeeded == report.jobs_total;
  return report;
}

}  // namespace nvo::grid
