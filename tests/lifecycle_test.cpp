// Lifecycle tests for end-to-end deadlines, cooperative cancellation, and
// hedged stage-ins: budget/token unit semantics, deterministic drop of
// cancelled pool tasks, leak-freedom when a request is cancelled mid
// stage-in (inflight gauges return to zero, no orphaned slots), a chaos
// overload sweep asserting that expired/shed/cancelled requests release
// every resource while survivors' catalogs stay byte-identical to a run
// without deadlines, a cancel, a chaos kill and a starved replica cache
// with the cluster's kernels held queued behind parked workers, and
// honest-accounting checks on hedged stage-ins.
// This suite runs in the TSan lane: the cancel paths cross the portal
// thread and pool workers, so data races here are the failure mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.hpp"
#include "common/cancel.hpp"
#include "grid/checkpoint.hpp"
#include "grid/threadpool.hpp"
#include "obs/metrics.hpp"
#include "portal/async_portal.hpp"
#include "portal/compute_service.hpp"
#include "portal/transforms.hpp"
#include "services/chaos.hpp"
#include "services/federation.hpp"
#include "services/http.hpp"
#include "services/lifecycle.hpp"
#include "sim/universe.hpp"

namespace nvo::portal {
namespace {

// ---------------------------------------------------------------------------
// DeadlineBudget + CancellationToken (pure unit tests)
// ---------------------------------------------------------------------------

TEST(Lifecycle, DeadlineBudgetSemantics) {
  const services::DeadlineBudget unbounded;
  EXPECT_FALSE(unbounded.bounded());
  EXPECT_FALSE(unbounded.expired(1e12));
  EXPECT_EQ(unbounded.remaining_ms(1e12),
            std::numeric_limits<double>::infinity());

  // Non-positive budgets are the "no SLO" convention, not a zero deadline.
  EXPECT_FALSE(services::DeadlineBudget::after(100.0, 0.0).bounded());
  EXPECT_FALSE(services::DeadlineBudget::after(100.0, -5.0).bounded());

  const auto budget = services::DeadlineBudget::after(100.0, 50.0);
  EXPECT_TRUE(budget.bounded());
  EXPECT_DOUBLE_EQ(budget.deadline_ms, 150.0);
  EXPECT_DOUBLE_EQ(budget.remaining_ms(120.0), 30.0);
  EXPECT_FALSE(budget.expired(149.9));
  EXPECT_TRUE(budget.expired(150.0));  // the deadline itself is too late
  EXPECT_DOUBLE_EQ(budget.remaining_ms(150.0), 0.0);
  EXPECT_DOUBLE_EQ(budget.remaining_ms(1000.0), 0.0);  // clamped, not negative
}

TEST(Lifecycle, CancellationTokenSharesStateAndKeepsFirstReason) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");

  CancellationToken copy = token;  // copies observe the same flag
  EXPECT_TRUE(copy.same_as(token));
  token.cancel("client gave up");
  EXPECT_TRUE(copy.cancelled());
  EXPECT_EQ(copy.reason(), "client gave up");
  copy.cancel("second caller");  // idempotent; first reason wins
  EXPECT_EQ(token.reason(), "client gave up");

  // Default-constructed tokens are independent, never pre-cancelled.
  const CancellationToken fresh;
  EXPECT_FALSE(fresh.same_as(token));
  EXPECT_FALSE(fresh.cancelled());

  services::RequestContext ctx;
  ctx.cancel = token;
  ctx.budget = services::DeadlineBudget::after(0.0, 10.0);
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_FALSE(ctx.expired(5.0));
  EXPECT_TRUE(ctx.expired(10.0));
}

// ---------------------------------------------------------------------------
// ThreadPool cancellable tasks
// ---------------------------------------------------------------------------

// Queued cancellable tasks whose token flips before a worker dequeues them
// must run the cancel branch — never the body — exactly once each. Workers
// are parked on a gate so the queue state is deterministic, not racy.
TEST(Lifecycle, CancelledPoolTasksDropAtDequeue) {
  grid::ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> parked{0};
  for (std::size_t i = 0; i < pool.num_threads(); ++i) {
    pool.submit([&parked, gate] {
      parked.fetch_add(1);
      gate.wait();
    });
  }
  while (parked.load() < static_cast<int>(pool.num_threads())) {
    std::this_thread::yield();
  }

  CancellationToken token;
  std::atomic<int> ran{0};
  std::atomic<int> dropped{0};
  constexpr int kTasks = 8;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit_cancellable(
        token, [&ran] { ran.fetch_add(1); }, [&dropped] { dropped.fetch_add(1); });
  }
  EXPECT_EQ(pool.queue_depth(), static_cast<std::size_t>(kTasks));

  token.cancel("request withdrawn");
  release.set_value();
  pool.wait_idle();

  EXPECT_EQ(ran.load(), 0);  // no cancelled body ever executed
  EXPECT_EQ(dropped.load(), kTasks);
  EXPECT_EQ(pool.cancelled_tasks(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.active_tasks(), 0u);

  // A live token still runs the body; the cancelled counter is cumulative.
  const CancellationToken live;
  pool.submit_cancellable(
      live, [&ran] { ran.fetch_add(1); }, [&dropped] { dropped.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(dropped.load(), kTasks);
  EXPECT_EQ(pool.cancelled_tasks(), static_cast<std::size_t>(kTasks));
}

// ---------------------------------------------------------------------------
// Full-stack cancellation + chaos sweeps
// ---------------------------------------------------------------------------

analysis::CampaignConfig small_campaign() {
  analysis::CampaignConfig config;
  config.population_scale = 0.05;
  config.compute_threads = 2;
  return config;
}

std::unique_ptr<AsyncPortal> make_portal(analysis::Campaign& campaign,
                                         AsyncPortalConfig config = {}) {
  auto portal = std::make_unique<AsyncPortal>(
      campaign.fabric(), campaign.federation(), campaign.compute_service(),
      config);
  for (const sim::Cluster& c : campaign.universe().clusters()) {
    ClusterEntry entry;
    entry.name = c.name();
    entry.position = c.center();
    entry.redshift = c.redshift();
    entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
    portal->add_cluster(entry);
  }
  return portal;
}

std::string cluster_name(const analysis::Campaign& campaign, std::size_t i) {
  const auto& clusters = campaign.universe().clusters();
  return clusters[i % clusters.size()].name();
}

// Cancelling a request in the middle of its stage-in (triggered from inside
// the fabric, after the 4th cutout fetch) must unwind every layer: the
// staging.inflight gauge returns to zero, the pool drains with no orphaned
// slots, admission releases the request, and nothing is memoized — the
// resubmission runs a fresh derivation to completion.
TEST(Lifecycle, CancelMidStageInReleasesEverything) {
  analysis::Campaign campaign(small_campaign());
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");
  obs::MetricsRegistry registry;
  campaign.compute_service().register_metrics(registry);

  struct Trigger {
    AsyncPortal* portal = nullptr;
    std::string id;
    int cutout_fetches = 0;
    bool fired = false;
  };
  auto trigger = std::make_shared<Trigger>();
  campaign.fabric().set_fault_injector(
      [trigger](const services::Url& url, const services::EndpointModel&,
                double) -> std::optional<services::EndpointModel> {
        if (url.host == services::Federation::kMastHost &&
            url.path == "/cutout/image") {
          if (++trigger->cutout_fetches == 4 && !trigger->fired) {
            trigger->fired = true;
            // Safe mid-stage: cancelling a RUNNING request only flags the
            // token; the staging loop observes it at its next checkpoint.
            trigger->portal->cancel(trigger->id, "mid-stage-in withdrawal");
          }
        }
        return std::nullopt;
      });

  const std::string cluster = cluster_name(campaign, 0);
  const Submission sub = portal->submit("alice", cluster);
  ASSERT_TRUE(sub.admitted);
  trigger->portal = portal.get();
  trigger->id = sub.id;
  portal->drain();

  ASSERT_TRUE(trigger->fired);  // the stage-in actually reached 4 fetches
  const auto status = portal->status(sub.id);
  ASSERT_TRUE(status);
  EXPECT_EQ(status->state, RequestState::kCancelled);
  // The staging loop (not the queue) observed the flag: the compute-side
  // message names exactly where the unwind happened.
  EXPECT_NE(status->error.find("staging cancelled after"), std::string::npos)
      << status->error;

  // Leak freedom: every in-flight resource was released on the way out.
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.gauge("staging.inflight"), 0.0);
  EXPECT_EQ(snap.gauge("pool.queue_depth"), 0.0);
  EXPECT_EQ(snap.gauge("pool.active_tasks"), 0.0);
  EXPECT_EQ(snap.gauge("pool.cancelled_tasks"),
            static_cast<double>(
                campaign.compute_service().pool().cancelled_tasks()));
  EXPECT_EQ(portal->admission_stats().queued, 0u);
  const auto stats = portal->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.memo_hits, 0u);  // a cancelled derivation is never memoized

  // The slot and single-flight key are free: a fresh submission of the same
  // cluster runs a full derivation to completion, not a memo serve.
  campaign.fabric().set_fault_injector({});
  const Submission again = portal->submit("alice", cluster);
  ASSERT_TRUE(again.admitted);
  portal->drain();
  const auto redo = portal->status(again.id);
  ASSERT_TRUE(redo);
  EXPECT_EQ(redo->state, RequestState::kDone);
  EXPECT_FALSE(redo->memo_hit);
  EXPECT_GT(redo->galaxies, 0u);
  EXPECT_EQ(registry.snapshot().gauge("staging.inflight"), 0.0);
}

// ---------------------------------------------------------------------------
// Deep backlog: the whole cluster queued behind parked workers
// ---------------------------------------------------------------------------

/// Parks every worker of a campaign's kernel pool on a gate at the first
/// cutout fetch, so each kernel the staging loop submits stays queued until
/// an opener thread opens the gate. Whatever the opener waits for, it gives
/// up after 60 s, so a broken drain fails the test instead of hanging it.
class BacklogGate {
 public:
  BacklogGate(analysis::Campaign& campaign, std::size_t cutouts)
      // The deliberate test seam documented at MorphologyService::pool().
      : pool_(const_cast<grid::ThreadPool&>(campaign.compute_service().pool())),
        cutouts_(cutouts) {}
  BacklogGate(const BacklogGate&) = delete;
  ~BacklogGate() {
    if (opener_.joinable()) opener_.join();
    if (!opened_) release_.set_value();
  }

  grid::ThreadPool& pool() { return pool_; }

  /// The opener saw what it waited for (false: it gave up). Call after the
  /// request finished.
  bool opened_on_cue() {
    if (opener_.joinable()) opener_.join();
    return on_cue_;
  }

  /// Fault-injector hook for each cutout fetch (runs on the request thread).
  /// Returns true on the cluster's last fetch.
  bool on_cutout_fetch() {
    ++fetches_;
    if (fetches_ == 1) park();
    if (fetches_ != cutouts_) return false;
    staged_.store(true);
    return true;
  }

  /// Opens the gate once staging is over and the request thread has taken
  /// the whole backlog off the queue (only it can: the workers are parked),
  /// so the helping drain does all of the work.
  void open_after_drain() {
    open_when([this] { return staged_.load() && pool_.queue_depth() == 0; });
  }

 private:
  template <typename Ready>
  void open_when(Ready ready) {
    opener_ = std::thread([this, ready] {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!(on_cue_ = ready()) && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      opened_ = true;
      release_.set_value();
    });
  }

  void park() {
    for (std::size_t i = 0; i < pool_.num_threads(); ++i) {
      pool_.submit([this] {
        parked_.fetch_add(1);
        gate_.wait();
      });
    }
    while (parked_.load() < pool_.num_threads()) std::this_thread::yield();
  }

  grid::ThreadPool& pool_;
  const std::size_t cutouts_;
  std::size_t fetches_ = 0;
  std::promise<void> release_;
  std::shared_future<void> gate_ = release_.get_future().share();
  std::atomic<std::size_t> parked_{0};
  std::atomic<bool> staged_{false};
  bool opened_ = false;  // written by opener_, read after joining it
  bool on_cue_ = false;  // likewise
  std::thread opener_;
};

bool is_cutout_fetch(const services::Url& url) {
  return url.host == services::Federation::kMastHost && url.path == "/cutout/image";
}

/// The first cluster of a fresh, fault-free campaign: its cutouts (one
/// archive fetch each), the largest of them, their total and its catalog.
struct FirstCluster {
  std::size_t cutouts = 0;
  std::size_t largest_cutout = 0;
  std::size_t cutout_bytes = 0;
  std::string catalog;
};

FirstCluster first_cluster() {
  analysis::Campaign reference(small_campaign());
  FirstCluster out;
  const auto outcome = reference.run_cluster(cluster_name(reference, 0));
  EXPECT_TRUE(outcome);
  const ServiceTrace* trace = reference.compute_service().last_trace();
  if (!outcome || trace == nullptr) return out;
  out.cutouts = trace->images_fetched;
  out.catalog = outcome->catalog_xml;
  for (const auto& [node, inputs] : trace->plan.data_inputs) {
    for (const std::string& lfn : inputs) {
      const std::size_t bytes = reference.grid().file_size(lfn).value_or(0);
      out.largest_cutout = std::max(out.largest_cutout, bytes);
      out.cutout_bytes += bytes;
    }
  }
  return out;
}

// A cancel that lands after the staging loop's last checkpoint finds the
// whole cluster queued. The request unwinds at DAGMan dispatch and its
// drain runs every queued kernel's cancel branch on the request thread:
// each drops exactly once, none journals a row, and the in-flight count
// and bytes return to zero.
TEST(Lifecycle, CancelWithTheWholeClusterQueuedDropsEveryKernelOnce) {
  const std::size_t cutouts = first_cluster().cutouts;
  ASSERT_GT(cutouts, 1u);
  const std::string journal_path =
      testing::TempDir() + "nvo_lifecycle_backlog_cancel.journal";
  std::remove(journal_path.c_str());
  analysis::CampaignConfig config = small_campaign();
  config.journal_path = journal_path;
  analysis::Campaign campaign(config);
  ASSERT_NE(campaign.journal(), nullptr);
  auto portal = make_portal(campaign);
  portal->add_tenant("alice");
  obs::MetricsRegistry registry;
  campaign.compute_service().register_metrics(registry);
  BacklogGate gate(campaign, cutouts);
  const std::size_t cancelled_before = gate.pool().cancelled_tasks();

  struct Target {
    AsyncPortal* portal = nullptr;
    std::string id;
  };
  auto target = std::make_shared<Target>();
  campaign.fabric().set_fault_injector(
      [target, &gate](const services::Url& url, const services::EndpointModel&,
                      double) -> std::optional<services::EndpointModel> {
        if (is_cutout_fetch(url) && gate.on_cutout_fetch()) {
          target->portal->cancel(target->id, "withdrawn with the backlog queued");
        }
        return std::nullopt;
      });
  const Submission sub = portal->submit("alice", cluster_name(campaign, 0));
  ASSERT_TRUE(sub.admitted);
  target->portal = portal.get();
  target->id = sub.id;
  gate.open_after_drain();
  portal->drain();
  campaign.fabric().set_fault_injector({});

  const auto status = portal->status(sub.id);
  ASSERT_TRUE(status);
  EXPECT_EQ(status->state, RequestState::kCancelled);
  // Staging finished: the cancel was seen by DAGMan, not the staging loop.
  EXPECT_NE(status->error.find("cancelled mid-execution"), std::string::npos)
      << status->error;
  EXPECT_TRUE(gate.opened_on_cue()) << "the request thread did not drain the queue";
  EXPECT_EQ(gate.pool().cancelled_tasks() - cancelled_before, cutouts);
  EXPECT_EQ(campaign.journal()->count("row"), 0u);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.gauge("staging.inflight"), 0.0);
  EXPECT_EQ(snap.gauge("staging.inflight_bytes"), 0.0);
  EXPECT_EQ(snap.gauge("pool.queue_depth"), 0.0);
  EXPECT_EQ(snap.gauge("pool.active_tasks"), 0.0);
  std::remove(journal_path.c_str());
}

// The chaos kill fires mid-execute with the whole first cluster still
// queued. The drain on the way out runs every queued kernel on the request
// thread, journaling its row, and a campaign resumed on the journal
// produces catalogs byte-identical to a fault-free run.
TEST(Lifecycle, KillMidExecuteWithTheBacklogQueuedResumesByteIdentical) {
  const std::size_t cutouts = first_cluster().cutouts;
  ASSERT_GT(cutouts, 1u);
  auto reference = analysis::Campaign(small_campaign()).run();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();
  const std::string journal_path =
      testing::TempDir() + "nvo_lifecycle_backlog_kill.journal";
  std::remove(journal_path.c_str());
  analysis::CampaignConfig config = small_campaign();
  config.journal_path = journal_path;
  {
    analysis::CampaignConfig killed = config;
    // Half the first cluster's compute jobs: the kill lands inside its DAG.
    killed.chaos.kill_after_nodes(std::max<std::size_t>(
        1, reference->clusters.front().compute_jobs / 2));
    analysis::Campaign campaign(killed);
    ASSERT_NE(campaign.journal(), nullptr);
    BacklogGate gate(campaign, cutouts);
    campaign.fabric().set_fault_injector(
        [&gate](const services::Url& url, const services::EndpointModel&,
                double) -> std::optional<services::EndpointModel> {
          if (is_cutout_fetch(url)) gate.on_cutout_fetch();
          return std::nullopt;
        });
    gate.open_after_drain();
    auto report = campaign.run();
    campaign.fabric().set_fault_injector({});
    ASSERT_FALSE(report.ok()) << "the chaos kill must abort the campaign";
    EXPECT_TRUE(campaign.compute_service().kill_fired());
    EXPECT_TRUE(gate.opened_on_cue()) << "the request thread did not drain the queue";
    // Every queued kernel ran (on the request thread) and kept its science.
    EXPECT_EQ(campaign.journal()->count("row"), cutouts);
  }
  analysis::Campaign resumed(config);
  ASSERT_NE(resumed.journal(), nullptr);
  auto report = resumed.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report->total_rows_resumed, 0u);
  ASSERT_EQ(report->clusters.size(), reference->clusters.size());
  for (std::size_t i = 0; i < report->clusters.size(); ++i) {
    EXPECT_EQ(report->clusters[i].catalog_xml, reference->clusters[i].catalog_xml)
        << report->clusters[i].name;
  }
  std::remove(journal_path.c_str());
}

// The staging bound is its own, not the replica cache's byte budget: with
// a cache budget below one cutout and the workers parked, staging still
// queues the whole cluster (every cutout pinned at once) and the request
// thread drains it. The science is unchanged.
TEST(Lifecycle, StarvedCacheStillQueuesTheClusterBehindParkedWorkers) {
  const FirstCluster reference = first_cluster();
  ASSERT_GT(reference.cutouts, 1u);
  ASSERT_GT(reference.cutout_bytes, reference.largest_cutout);
  analysis::CampaignConfig config = small_campaign();
  config.image_cache.byte_budget = 512;  // a FITS header alone is 2880
  analysis::Campaign campaign(config);
  BacklogGate gate(campaign, reference.cutouts);
  campaign.fabric().set_fault_injector(
      [&gate](const services::Url& url, const services::EndpointModel&,
              double) -> std::optional<services::EndpointModel> {
        if (is_cutout_fetch(url)) gate.on_cutout_fetch();
        return std::nullopt;
      });
  gate.open_after_drain();
  const auto outcome = campaign.run_cluster(cluster_name(campaign, 0));
  campaign.fabric().set_fault_injector({});
  ASSERT_TRUE(outcome) << outcome.error().to_string();
  EXPECT_TRUE(gate.opened_on_cue()) << "staging stopped short of the whole cluster";
  const ServiceTrace* trace = campaign.compute_service().last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->staging_inflight_bytes_hwm, reference.cutout_bytes);
  EXPECT_EQ(outcome->catalog_xml, reference.catalog);
}

// Overload + brownout chaos sweep: submissions at ~4x the queue capacity
// with a mix of unbounded, hopeless-deadline, and withdrawn requests. Every
// request must reach a terminal state, every gauge must drain to zero, and
// the requests that DID complete must produce catalogs byte-identical to a
// reference campaign that ran the same weather with no deadlines and no
// cancellations — deadline enforcement may drop work, never corrupt it.
TEST(Lifecycle, ChaosOverloadSweepDropsWorkWithoutCorruptingSurvivors) {
  analysis::CampaignConfig config = small_campaign();
  // One long brownout over the primary archive: both runs see identical
  // weather (windows are keyed on the simulated clock, draws are seeded).
  config.chaos.brownout(services::Federation::kMastHost, 0.5, 20.0, 0.0, 1e9);

  // Reference run: same universe, same chaos, no deadlines, no cancels.
  analysis::Campaign reference(config);
  auto ref_portal = make_portal(reference);
  ref_portal->add_tenant("archive");
  std::map<std::string, std::string> ref_catalogs;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string cluster = cluster_name(reference, i);
    const Submission sub = ref_portal->submit("archive", cluster);
    ASSERT_TRUE(sub.admitted);
    ref_portal->drain();
    const auto status = ref_portal->status(sub.id);
    ASSERT_TRUE(status);
    ASSERT_EQ(status->state, RequestState::kDone);
    const std::string* xml = reference.compute_service().result_xml(
        output_votable_lfn(cluster));
    ASSERT_NE(xml, nullptr);
    ref_catalogs[cluster] = *xml;
  }

  // Overloaded run: tight queues, a tenant whose deadline cannot be met,
  // and a queued withdrawal, all under the same brownout.
  analysis::Campaign campaign(config);
  AsyncPortalConfig portal_config;
  portal_config.admission.per_tenant_queue_limit = 3;
  portal_config.admission.global_queue_limit = 4;
  auto portal = make_portal(campaign, portal_config);
  portal->add_tenant("archive");
  portal->add_tenant("grad_student");
  obs::MetricsRegistry registry;
  campaign.compute_service().register_metrics(registry);

  std::vector<std::string> ids;
  // archive: two real derivations plus one it withdraws while queued.
  const Submission keep0 = portal->submit("archive", cluster_name(campaign, 0));
  const Submission keep1 = portal->submit("archive", cluster_name(campaign, 1));
  const Submission withdrawn =
      portal->submit("archive", cluster_name(campaign, 2));
  ASSERT_TRUE(keep0.admitted);
  ASSERT_TRUE(keep1.admitted);
  ASSERT_TRUE(withdrawn.admitted);
  ASSERT_TRUE(portal->cancel(withdrawn.id, "client gave up").ok());
  // grad_student: four hopeless 1 ms deadlines against full queues — one
  // admitted slot expires, the rest shed at admission. 7 offered vs 4 slots.
  std::size_t grad_shed = 0;
  std::size_t grad_admitted = 0;
  for (int i = 0; i < 4; ++i) {
    const Submission sub =
        portal->submit("grad_student", cluster_name(campaign, 0), "", 1.0);
    if (sub.admitted) {
      ++grad_admitted;
      ids.push_back(sub.id);
    } else {
      ++grad_shed;
      EXPECT_GT(sub.retry_after_ms, 0.0);  // sheds carry back-pressure
      if (!sub.id.empty()) ids.push_back(sub.id);
    }
  }
  EXPECT_GE(grad_admitted, 1u);
  EXPECT_GE(grad_shed, 2u);
  ids.push_back(keep0.id);
  ids.push_back(keep1.id);
  ids.push_back(withdrawn.id);
  portal->drain();

  // Every request is terminal and the terminal mix is the scripted one.
  for (const std::string& id : ids) {
    const auto status = portal->status(id);
    ASSERT_TRUE(status) << id;
    EXPECT_TRUE(status->terminal()) << id;
  }
  const auto stats = portal->stats();
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.expired, grad_admitted);
  EXPECT_EQ(stats.shed, grad_shed);
  // An expired request still reports the budget it missed and back-pressure.
  const auto expired = portal->status(ids.front());
  ASSERT_TRUE(expired);
  if (expired->state == RequestState::kExpired) {
    EXPECT_GT(expired->deadline_ms, 0.0);
    EXPECT_GT(expired->retry_after_ms, 0.0);
  }

  // Dropped work released everything it held.
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.gauge("staging.inflight"), 0.0);
  EXPECT_EQ(snap.gauge("pool.queue_depth"), 0.0);
  EXPECT_EQ(snap.gauge("pool.active_tasks"), 0.0);
  EXPECT_EQ(portal->admission_stats().queued, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.waiting, 0u);

  // Survivors are byte-identical to the no-deadline reference run.
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string cluster = cluster_name(campaign, i);
    const std::string* xml =
        campaign.compute_service().result_xml(output_votable_lfn(cluster));
    ASSERT_NE(xml, nullptr) << cluster;
    EXPECT_EQ(*xml, ref_catalogs.at(cluster)) << cluster;
  }
}

// ---------------------------------------------------------------------------
// Hedged stage-ins: tail latency and honest accounting
// ---------------------------------------------------------------------------

analysis::CampaignConfig hedging_campaign(bool hedged) {
  analysis::CampaignConfig config = small_campaign();
  config.hedge_stage_ins = hedged;
  // Periodic short brownouts on the cutout path: most fetches are fast, a
  // minority land in a window and straggle — the tail hedging defends.
  for (int i = 0; i < 400; ++i) {
    services::FaultWindow window;
    window.kind = services::FaultWindow::Kind::kBrownout;
    window.host = services::Federation::kMastHost;
    window.path_prefix = "/cutout/image";
    window.start_ms = 1000.0 * i + 850.0;
    window.end_ms = 1000.0 * i + 1000.0;
    window.bandwidth_factor = 0.05;
    window.extra_latency_ms = 80.0;
    config.chaos.add(window);
  }
  return config;
}

// Hedging must cut the stage-in tail without changing a single catalog
// byte, and its WAN overhead must stay bounded by the hedge rate (only the
// loser stream of an actually-hedged fetch can be charged as waste).
TEST(Lifecycle, HedgedStageInsCutTailWithHonestAccounting) {
  struct Lane {
    double worst_p99 = 0.0;
    std::uint64_t hedged = 0;
    std::uint64_t wins = 0;
    std::size_t fetched = 0;
    std::size_t wan_bytes = 0;
    std::size_t wasted_bytes = 0;
    std::map<std::string, std::string> catalogs;
  };
  auto run = [](bool hedged) {
    analysis::Campaign campaign(hedging_campaign(hedged));
    Lane lane;
    for (std::size_t i = 0; i < 3; ++i) {
      const std::string cluster = cluster_name(campaign, i);
      const auto outcome = campaign.run_cluster(cluster);
      EXPECT_TRUE(outcome) << cluster;
      if (!outcome) continue;
      const ServiceTrace* trace = campaign.compute_service().trace(
          outcome->portal_trace.compute_request_id);
      EXPECT_NE(trace, nullptr) << cluster;
      if (trace == nullptr) continue;
      lane.worst_p99 = std::max(lane.worst_p99, trace->stage_in_p99_ms);
      lane.hedged += trace->hedged_fetches;
      lane.wins += trace->hedge_wins;
      lane.fetched += trace->images_fetched;
      lane.wan_bytes += trace->staging_wan_bytes;
      lane.wasted_bytes += trace->hedge_wasted_bytes;
      const std::string* xml =
          campaign.compute_service().result_xml(output_votable_lfn(cluster));
      EXPECT_NE(xml, nullptr) << cluster;
      if (xml != nullptr) lane.catalogs[cluster] = *xml;
    }
    return lane;
  };

  const Lane unhedged = run(false);
  const Lane hedged = run(true);

  // Same workload either way — hedging must not change what is fetched.
  ASSERT_EQ(hedged.fetched, unhedged.fetched);
  ASSERT_GT(hedged.fetched, 0u);
  EXPECT_EQ(unhedged.hedged, 0u);
  EXPECT_EQ(unhedged.wasted_bytes, 0u);

  // The hedges fired and bought a strictly better worst-cluster p99.
  EXPECT_GT(hedged.hedged, 0u);
  EXPECT_LE(hedged.wins, hedged.hedged);
  EXPECT_LT(hedged.worst_p99, unhedged.worst_p99);

  // Honest WAN accounting: inflation is bounded by the hedge rate (each
  // hedge adds at most one duplicate transfer) and the waste is visible.
  const double hedge_rate =
      static_cast<double>(hedged.hedged) / static_cast<double>(hedged.fetched);
  const double inflation = static_cast<double>(hedged.wan_bytes) /
                               static_cast<double>(unhedged.wan_bytes) -
                           1.0;
  EXPECT_LE(inflation, hedge_rate + 1e-9);
  EXPECT_GE(hedged.wan_bytes, unhedged.wan_bytes);
  EXPECT_GT(hedged.wasted_bytes, 0u);

  // Hedging is a latency optimization, not a data path: catalogs are
  // byte-identical (the mirror serves the same signed bytes).
  ASSERT_EQ(hedged.catalogs.size(), unhedged.catalogs.size());
  for (const auto& [cluster, xml] : unhedged.catalogs) {
    ASSERT_TRUE(hedged.catalogs.count(cluster)) << cluster;
    EXPECT_EQ(hedged.catalogs.at(cluster), xml) << cluster;
  }
}

}  // namespace
}  // namespace nvo::portal
