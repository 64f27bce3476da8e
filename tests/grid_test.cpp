// Tests for the execution substrate: thread pool, grid storage/transfer
// model, the discrete-event DAGMan, the real-execution DAGMan, rescue
// DAGs, and the durable checkpoint journal.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include "grid/checkpoint.hpp"
#include "grid/dagman.hpp"
#include "grid/grid.hpp"
#include "grid/rescue.hpp"
#include "grid/threadpool.hpp"

namespace nvo::grid {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroItems) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPool, ParallelForSingleItem) {
  ThreadPool pool(2);
  int value = 0;
  parallel_for(pool, 1, [&](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

// ---------------------------------------------------------------------------
// Grid storage and transfer model
// ---------------------------------------------------------------------------

TEST(Grid, SitesUnique) {
  Grid g;
  EXPECT_TRUE(g.add_site({"isi", 4, 1.0, 10.0, 100.0}).ok());
  EXPECT_FALSE(g.add_site({"isi", 8, 1.0, 10.0, 100.0}).ok());
  EXPECT_NE(g.site("isi"), nullptr);
  EXPECT_EQ(g.site("nope"), nullptr);
}

TEST(Grid, FileStorage) {
  Grid g = make_paper_grid();
  EXPECT_FALSE(g.has_file("isi", "a.fit"));
  g.put_file("isi", "a.fit", 1024);
  EXPECT_TRUE(g.has_file("isi", "a.fit"));
  EXPECT_EQ(g.file_size("a.fit").value(), 1024u);
  EXPECT_EQ(g.locations("a.fit"), std::vector<std::string>{"isi"});
  g.put_file("fermilab", "a.fit", 1024);
  EXPECT_EQ(g.locations("a.fit").size(), 2u);
  g.remove_file("isi", "a.fit");
  EXPECT_FALSE(g.has_file("isi", "a.fit"));
}

TEST(Grid, TransferTimeZeroSameSite) {
  Grid g = make_paper_grid();
  g.put_file("isi", "x", 1 << 20);
  EXPECT_DOUBLE_EQ(g.transfer_seconds("isi", "isi", "x"), 0.0);
}

TEST(Grid, TransferTimeLatencyPlusBandwidth) {
  Grid g;
  (void)g.add_site({"a", 1, 1.0, 100.0, 100.0});  // 100 ms latency, 100 Mbps
  (void)g.add_site({"b", 1, 1.0, 100.0, 10.0});   // 100 ms latency, 10 Mbps
  g.put_file("a", "big", 10 * 1000 * 1000);       // 80 Mbit
  // latency 0.2 s + 80 Mbit / min(100,10) Mbps = 8 s.
  EXPECT_NEAR(g.transfer_seconds("a", "b", "big"), 8.2, 1e-9);
}

TEST(Grid, UnknownFileUsesDefaultSize) {
  Grid g = make_paper_grid();
  g.default_file_bytes = 1000;
  const double t = g.transfer_seconds("isi", "fermilab", "unknown.dat");
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0);
}

TEST(Grid, PaperGridHasThreePools) {
  const Grid g = make_paper_grid();
  EXPECT_EQ(g.sites().size(), 3u);
  EXPECT_NE(g.site("uwisc"), nullptr);
  EXPECT_NE(g.site("fermilab"), nullptr);
}

// ---------------------------------------------------------------------------
// DagManSim
// ---------------------------------------------------------------------------

vds::Dag compute_chain(int n, const std::string& site) {
  vds::Dag dag;
  for (int i = 0; i < n; ++i) {
    vds::DagNode node;
    node.id = "j" + std::to_string(i);
    node.type = vds::JobType::kCompute;
    node.transformation = "t";
    node.site = site;
    (void)dag.add_node(node);
    if (i > 0) (void)dag.add_edge("j" + std::to_string(i - 1), node.id);
  }
  return dag;
}

TEST(DagManSim, ChainMakespanIsSumOfDurations) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  JobCostModel cost;
  cost.compute_reference_seconds = 2.0;
  DagManSim dagman(g, cost, FailureModel{});
  auto report = dagman.run(compute_chain(5, "s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->workflow_succeeded);
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 10.0);
  EXPECT_EQ(report->jobs_succeeded, 5u);
}

TEST(DagManSim, SiteSpeedScalesDuration) {
  Grid g;
  (void)g.add_site({"fast", 4, 2.0, 10.0, 100.0});
  JobCostModel cost;
  cost.compute_reference_seconds = 2.0;
  DagManSim dagman(g, cost, FailureModel{});
  auto report = dagman.run(compute_chain(3, "fast"));
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 3.0);  // 3 * 2s / 2x
}

TEST(DagManSim, SlotLimitSerializesIndependentJobs) {
  Grid g;
  (void)g.add_site({"s", 2, 1.0, 10.0, 100.0});
  vds::Dag dag;
  for (int i = 0; i < 6; ++i) {
    vds::DagNode node;
    node.id = "p" + std::to_string(i);
    node.type = vds::JobType::kCompute;
    node.site = "s";
    (void)dag.add_node(node);
  }
  JobCostModel cost;
  cost.compute_reference_seconds = 1.0;
  DagManSim dagman(g, cost, FailureModel{});
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  // 6 one-second jobs on 2 slots -> 3 waves.
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 3.0);
  EXPECT_NEAR(report->site_busy_seconds.at("s"), 6.0, 1e-9);
}

TEST(DagManSim, TransferNodesUseChannelModel) {
  Grid g;
  (void)g.add_site({"a", 1, 1.0, 100.0, 100.0});
  (void)g.add_site({"b", 1, 1.0, 100.0, 100.0});
  g.put_file("a", "f", 10 * 1000 * 1000);  // 80 Mbit -> 0.8 s + 0.2 s latency
  vds::Dag dag;
  vds::DagNode tx;
  tx.id = "tx";
  tx.type = vds::JobType::kTransfer;
  tx.file = "f";
  tx.source_site = "a";
  tx.site = "b";
  (void)dag.add_node(tx);
  DagManSim dagman(g, JobCostModel{}, FailureModel{});
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->makespan_seconds, 1.0, 1e-9);
  EXPECT_EQ(report->transfer_jobs, 1u);
}

TEST(DagManSim, PerNodeCostOverride) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  JobCostModel cost;
  cost.compute_seconds = [](const vds::DagNode& n) {
    return n.id == "j0" ? 10.0 : 1.0;
  };
  DagManSim dagman(g, cost, FailureModel{});
  auto report = dagman.run(compute_chain(2, "s"));
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 11.0);
}

TEST(DagManSim, UnknownSiteIsError) {
  Grid g = make_paper_grid();
  auto report = DagManSim(g, JobCostModel{}, FailureModel{}).run(compute_chain(1, "mars"));
  EXPECT_FALSE(report.ok());
}

TEST(DagManSim, RetriesRecoverTransientFailures) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  FailureModel failure;
  failure.compute_failure_rate = 0.3;
  failure.max_retries = 10;  // effectively always recovers
  DagManSim dagman(g, JobCostModel{}, failure, 7);
  auto report = dagman.run(compute_chain(20, "s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->workflow_succeeded);
  EXPECT_GT(report->retries, 0u);
}

TEST(DagManSim, PermanentFailureSkipsDescendants) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  FailureModel failure;
  failure.max_retries = 1;
  failure.permanent_failures.insert("j1");
  DagManSim dagman(g, JobCostModel{}, failure);
  auto report = dagman.run(compute_chain(4, "s"));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->workflow_succeeded);
  EXPECT_EQ(report->jobs_succeeded, 1u);  // j0
  EXPECT_EQ(report->jobs_failed, 1u);     // j1
  EXPECT_EQ(report->jobs_skipped, 2u);    // j2, j3
  EXPECT_EQ(report->result_for("j1")->outcome, NodeOutcome::kFailed);
  EXPECT_GT(report->result_for("j1")->attempts, 1);  // it was retried
  EXPECT_EQ(report->result_for("j3")->outcome, NodeOutcome::kSkipped);
}

TEST(DagManSim, UnifiedRetryBudgetBoundsPermanentFailureCost) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  JobCostModel cost;
  cost.compute_reference_seconds = 2.0;

  FailureModel per_node;  // default budget: 2 node-level retries
  per_node.permanent_failures.insert("j1");
  auto fat = DagManSim(g, cost, per_node).run(compute_chain(4, "s"));
  ASSERT_TRUE(fat.ok());

  FailureModel unified = per_node;
  unified.max_retries = 0;  // budget handed to the per-request HTTP layer
  auto lean = DagManSim(g, cost, unified).run(compute_chain(4, "s"));
  ASSERT_TRUE(lean.ok());

  // The permanent failure is detected after a single attempt instead of
  // burning the whole node-retry budget on a job that can never succeed.
  EXPECT_EQ(fat->result_for("j1")->attempts, per_node.max_retries + 1);
  EXPECT_EQ(lean->result_for("j1")->attempts, 1);
  EXPECT_EQ(lean->retries, 0u);
  EXPECT_LT(lean->makespan_seconds, fat->makespan_seconds);
}

TEST(Rescue, PermanentFailureLandsInRescueDagExactlyOnce) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  FailureModel failure;
  failure.max_retries = 0;  // unified budget: HTTP layer already retried
  failure.permanent_failures.insert("j1");
  DagManSim dagman(g, JobCostModel{}, failure);
  const vds::Dag dag = compute_chain(4, "s");

  auto first = dagman.run(dag);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->workflow_succeeded);
  auto rescue = make_rescue_dag(dag, first.value());
  ASSERT_TRUE(rescue.ok());
  EXPECT_TRUE(rescue->has_node("j1"));
  EXPECT_EQ(rescue->num_nodes(), 3u);  // j1 plus its skipped descendants

  auto outcome = run_with_rescue(dagman, dag, 3);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->fully_succeeded);
  EXPECT_EQ(outcome->rounds, 3u);
  // Each rescue round re-attempts the hard failure exactly once; the retry
  // budget lives in the per-request layer, not in DAGMan reruns.
  EXPECT_EQ(outcome->final_report.result_for("j1")->attempts, 1);
}

TEST(DagManSim, DeterministicInSeed) {
  Grid g = make_paper_grid();
  FailureModel failure;
  failure.compute_failure_rate = 0.2;
  auto run = [&](std::uint64_t seed) {
    DagManSim dagman(g, JobCostModel{}, failure, seed);
    return dagman.run(compute_chain(30, "isi"))->makespan_seconds;
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
}

TEST(DagManSim, EmptyDagSucceedsInstantly) {
  Grid g = make_paper_grid();
  auto report = DagManSim(g, JobCostModel{}, FailureModel{}).run(vds::Dag{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->workflow_succeeded);
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 0.0);
}

TEST(DagManSim, ParallelBranchesOverlap) {
  Grid g;
  (void)g.add_site({"s", 8, 1.0, 10.0, 100.0});
  // Fan-out: root -> 4 branches -> join.
  vds::Dag dag;
  vds::DagNode root;
  root.id = "root";
  root.type = vds::JobType::kCompute;
  root.site = "s";
  (void)dag.add_node(root);
  for (int i = 0; i < 4; ++i) {
    vds::DagNode n;
    n.id = "b" + std::to_string(i);
    n.type = vds::JobType::kCompute;
    n.site = "s";
    (void)dag.add_node(n);
    (void)dag.add_edge("root", n.id);
  }
  vds::DagNode join;
  join.id = "join";
  join.type = vds::JobType::kCompute;
  join.site = "s";
  (void)dag.add_node(join);
  for (int i = 0; i < 4; ++i) (void)dag.add_edge("b" + std::to_string(i), "join");
  JobCostModel cost;
  cost.compute_reference_seconds = 1.0;
  auto report = DagManSim(g, cost, FailureModel{}).run(dag);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 3.0);  // branches run together
}

// ---------------------------------------------------------------------------
// DagManLocal
// ---------------------------------------------------------------------------

TEST(DagManLocal, ExecutesInDependencyOrder) {
  ThreadPool pool(3);
  DagManLocal dagman(pool);
  std::mutex m;
  std::vector<std::string> order;
  dagman.register_payload("t", [&](const vds::DagNode& n) {
    std::lock_guard lock(m);
    order.push_back(n.id);
    return Status::Ok();
  });
  auto report = dagman.run(compute_chain(5, ""));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->workflow_succeeded);
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], "j" + std::to_string(i));
}

TEST(DagManLocal, MissingPayloadIsError) {
  ThreadPool pool(2);
  DagManLocal dagman(pool);
  EXPECT_FALSE(dagman.run(compute_chain(1, "")).ok());
}

TEST(DagManLocal, FailurePropagatesAsSkip) {
  ThreadPool pool(2);
  DagManLocal dagman(pool);
  dagman.register_payload("t", [](const vds::DagNode& n) -> Status {
    if (n.id == "j1") return Error(ErrorCode::kComputeFailed, "boom");
    return Status::Ok();
  });
  auto report = dagman.run(compute_chain(4, ""));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->workflow_succeeded);
  EXPECT_EQ(report->jobs_succeeded, 1u);
  EXPECT_EQ(report->jobs_failed, 1u);
  EXPECT_EQ(report->jobs_skipped, 2u);
}

TEST(DagManLocal, ParallelFanOutActuallyConcurrent) {
  ThreadPool pool(4);
  DagManLocal dagman(pool);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  dagman.register_payload("t", [&](const vds::DagNode&) {
    const int now = running.fetch_add(1) + 1;
    int old_peak = peak.load();
    while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    running.fetch_sub(1);
    return Status::Ok();
  });
  vds::Dag dag;
  for (int i = 0; i < 8; ++i) {
    vds::DagNode n;
    n.id = "p" + std::to_string(i);
    n.type = vds::JobType::kCompute;
    n.transformation = "t";
    (void)dag.add_node(n);
  }
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->workflow_succeeded);
  EXPECT_GE(peak.load(), 2);  // at least two payloads overlapped
}

TEST(DagManLocal, TransferAndRegisterHooksRun) {
  ThreadPool pool(2);
  DagManLocal dagman(pool);
  std::atomic<int> transfers{0}, registers{0};
  dagman.set_transfer_hook([&](const vds::DagNode&) {
    transfers.fetch_add(1);
    return Status::Ok();
  });
  dagman.set_register_hook([&](const vds::DagNode&) {
    registers.fetch_add(1);
    return Status::Ok();
  });
  vds::Dag dag;
  vds::DagNode tx;
  tx.id = "tx";
  tx.type = vds::JobType::kTransfer;
  (void)dag.add_node(tx);
  vds::DagNode reg;
  reg.id = "reg";
  reg.type = vds::JobType::kRegister;
  (void)dag.add_node(reg);
  (void)dag.add_edge("tx", "reg");
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(transfers.load(), 1);
  EXPECT_EQ(registers.load(), 1);
  EXPECT_EQ(report->transfer_jobs, 1u);
  EXPECT_EQ(report->register_jobs, 1u);
}

// ---------------------------------------------------------------------------
// Rescue edge cases
// ---------------------------------------------------------------------------

TEST(Rescue, AllSucceededReportYieldsEmptyRescueDag) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  DagManSim dagman(g, JobCostModel{}, FailureModel{});
  const vds::Dag dag = compute_chain(3, "s");
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->workflow_succeeded);
  auto rescue = make_rescue_dag(dag, report.value());
  ASSERT_TRUE(rescue.ok());
  EXPECT_TRUE(rescue->empty());
}

TEST(Rescue, RunWithRescueAllSucceededStopsAfterOneRound) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  DagManSim dagman(g, JobCostModel{}, FailureModel{});
  auto outcome = run_with_rescue(dagman, compute_chain(3, "s"), 5);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->fully_succeeded);
  EXPECT_EQ(outcome->rounds, 1u);  // no degenerate rescue round
  EXPECT_EQ(outcome->final_report.jobs_succeeded, 3u);
}

TEST(Rescue, RunWithRescueEmptyDagIsEmptyOutcome) {
  Grid g = make_paper_grid();
  DagManSim dagman(g, JobCostModel{}, FailureModel{});
  auto outcome = run_with_rescue(dagman, vds::Dag{}, 5);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->fully_succeeded);
  EXPECT_EQ(outcome->rounds, 0u);
  EXPECT_EQ(outcome->final_report.jobs_total, 0u);
}

TEST(Rescue, MergeNodeOutcomesReportsAbsentNodesSkipped) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  const vds::Dag dag = compute_chain(3, "s");
  std::map<std::string, NodeResult> latest;
  NodeResult done;
  done.id = "j0";
  done.outcome = NodeOutcome::kSucceeded;
  latest["j0"] = done;
  const RunReport merged = merge_node_outcomes(dag, latest);
  EXPECT_EQ(merged.jobs_total, 3u);
  EXPECT_EQ(merged.jobs_succeeded, 1u);
  EXPECT_EQ(merged.jobs_skipped, 2u);
  EXPECT_FALSE(merged.workflow_succeeded);
}

// ---------------------------------------------------------------------------
// DagManSim node callback (the checkpoint hook)
// ---------------------------------------------------------------------------

TEST(DagManSim, NodeCallbackSeesEveryFinalOutcome) {
  Grid g;
  (void)g.add_site({"s", 4, 1.0, 10.0, 100.0});
  FailureModel failure;
  failure.max_retries = 0;
  failure.permanent_failures.insert("j1");
  DagManSim dagman(g, JobCostModel{}, failure);
  std::vector<std::string> seen;
  dagman.set_node_callback([&](const NodeResult& r) {
    seen.push_back(r.id + (r.outcome == NodeOutcome::kSucceeded ? "+" : "-"));
    return Status::Ok();
  });
  auto report = dagman.run(compute_chain(3, "s"));
  ASSERT_TRUE(report.ok());
  // j2 is skipped (never reaches a final outcome), so no callback for it.
  EXPECT_EQ(seen, (std::vector<std::string>{"j0+", "j1-"}));
}

TEST(DagManSim, NodeCallbackErrorAbortsTheRun) {
  Grid g;
  (void)g.add_site({"s", 1, 1.0, 10.0, 100.0});
  DagManSim dagman(g, JobCostModel{}, FailureModel{});
  int completions = 0;
  dagman.set_node_callback([&](const NodeResult&) -> Status {
    if (++completions >= 2) {
      return Error(ErrorCode::kAborted, "injected kill");
    }
    return Status::Ok();
  });
  auto report = dagman.run(compute_chain(5, "s"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kAborted);
  EXPECT_EQ(completions, 2);  // nothing ran past the kill
}

// ---------------------------------------------------------------------------
// CheckpointJournal
// ---------------------------------------------------------------------------

std::string temp_journal_path(const std::string& name) {
  return testing::TempDir() + "nvo_ckpt_" + name + ".journal";
}

TEST(CheckpointJournal, RoundTripsRecordsAcrossReopen) {
  const std::string path = temp_journal_path("roundtrip");
  {
    auto j = CheckpointJournal::open(path, /*fresh=*/true);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append("node", "c1/m_G1", "").ok());
    ASSERT_TRUE((*j)->append("row", "c1/G1", "payload with spaces\nand newline").ok());
    ASSERT_TRUE((*j)->append("row", "c1/G1", "second write wins").ok());
    EXPECT_EQ((*j)->stats().appends, 3u);
  }
  auto j = CheckpointJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->stats().records_loaded, 3u);
  EXPECT_EQ((*j)->stats().truncated_records, 0u);
  EXPECT_TRUE((*j)->has("node", "c1/m_G1"));
  ASSERT_NE((*j)->find("row", "c1/G1"), nullptr);
  EXPECT_EQ(*(*j)->find("row", "c1/G1"), "second write wins");  // latest wins
  EXPECT_EQ((*j)->count("row"), 1u);
  EXPECT_EQ((*j)->find("row", "c9/missing"), nullptr);
}

TEST(CheckpointJournal, KeysWithSpacesAndNewlinesRoundTrip) {
  const std::string path = temp_journal_path("keys");
  {
    auto j = CheckpointJournal::open(path, true);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append("k", "a key with spaces\nand % signs", "v").ok());
  }
  auto j = CheckpointJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE((*j)->has("k", "a key with spaces\nand % signs"));
}

TEST(CheckpointJournal, AdversarialKeysStayDistinctAcrossReopen) {
  // Property: any byte string is a valid key, and keys that *look like* the
  // escaped form of another key stay distinct. Regression for the escaper
  // passing literal '%' through: "a%20b" and "a b" used to collide on reload.
  const std::string path = temp_journal_path("escaping");
  const std::vector<std::string> keys = {
      "plain",
      "%",
      "%%",
      "%25",
      "%20",
      "a b",
      "a%20b",        // literal percent-two-zero, NOT a space
      "tab\there",
      "newline\nhere",
      "cr\rlf\n",
      std::string("\v\f"),
      std::string("\x01\x1f ctl\0\x7f", 8),  // control bytes, NUL, DEL
      "trailing%",
      "50% off\nnow",
  };
  {
    auto j = CheckpointJournal::open(path, /*fresh=*/true);
    ASSERT_TRUE(j.ok());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE((*j)->append("k", keys[i], "v" + std::to_string(i)).ok());
    }
  }
  auto j = CheckpointJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->stats().records_loaded, keys.size());
  EXPECT_EQ((*j)->stats().truncated_records, 0u);
  EXPECT_EQ((*j)->count("k"), keys.size());  // no two keys collided
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string* payload = (*j)->find("k", keys[i]);
    ASSERT_NE(payload, nullptr) << "key " << i << " lost";
    EXPECT_EQ(*payload, "v" + std::to_string(i)) << "key " << i << " collided";
  }
}

TEST(CheckpointJournal, TruncatedTailIsDroppedNotFatal) {
  const std::string path = temp_journal_path("truncated");
  {
    auto j = CheckpointJournal::open(path, true);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append("row", "g1", "first").ok());
    ASSERT_TRUE((*j)->append("row", "g2", "second").ok());
  }
  // Simulate a kill mid-write: chop bytes off the tail.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 7);
  }
  auto j = CheckpointJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->stats().records_loaded, 1u);
  EXPECT_EQ((*j)->stats().truncated_records, 1u);
  EXPECT_TRUE((*j)->has("row", "g1"));
  EXPECT_FALSE((*j)->has("row", "g2"));
  // Appends after recovery extend the clean prefix and reload whole.
  ASSERT_TRUE((*j)->append("row", "g3", "third").ok());
  auto again = CheckpointJournal::open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->stats().records_loaded, 2u);
  EXPECT_TRUE((*again)->has("row", "g3"));
}

TEST(CheckpointJournal, CorruptedChecksumEndsTheLoadAtTheBadRecord) {
  const std::string path = temp_journal_path("checksum");
  {
    auto j = CheckpointJournal::open(path, true);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append("row", "g1", "first").ok());
    ASSERT_TRUE((*j)->append("row", "g2", "second").ok());
  }
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() - 4] ^= 0x01;  // flip a bit inside the last payload
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto j = CheckpointJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->stats().records_loaded, 1u);
  EXPECT_EQ((*j)->stats().truncated_records, 1u);
  EXPECT_FALSE((*j)->has("row", "g2"));
}

TEST(CheckpointJournal, ForeignHeaderIsAnError) {
  const std::string path = temp_journal_path("foreign");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOT A JOURNAL\njunk\n";
  }
  auto j = CheckpointJournal::open(path);
  EXPECT_FALSE(j.ok());
}

TEST(CheckpointJournal, KillDuringRacingAppendsRecoversTheCleanPrefix) {
  // The crash model the journal promises to survive: many threads appending
  // when the process dies mid-write. Simulated by chopping the file inside
  // the last record. Recovery must keep every complete record, drop exactly
  // the torn tail, and accept clean appends afterwards.
  const std::string path = temp_journal_path("racing_kill");
  constexpr int kRecords = 48;
  {
    auto j = CheckpointJournal::open(path, true);
    ASSERT_TRUE(j.ok());
    ThreadPool pool(4);
    for (int i = 0; i < kRecords; ++i) {
      pool.submit([&journal = **j, i] {
        (void)journal.append("row", "g" + std::to_string(i),
                             "payload-" + std::to_string(i));
      });
    }
    pool.wait_idle();
  }
  // The kill: tear bytes off the tail, mid-record.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 5);
  }
  std::set<std::string> survivors;
  {
    auto j = CheckpointJournal::open(path);
    ASSERT_TRUE(j.ok());
    // Exactly one record was torn; every complete one survived. Which keys
    // survived depends on the racy append order, but the count does not.
    EXPECT_EQ((*j)->stats().records_loaded, kRecords - 1u);
    EXPECT_EQ((*j)->stats().truncated_records, 1u);
    EXPECT_EQ((*j)->count("row"), kRecords - 1u);
    for (int i = 0; i < kRecords; ++i) {
      const std::string key = "g" + std::to_string(i);
      if ((*j)->has("row", key)) survivors.insert(key);
    }
    EXPECT_EQ(survivors.size(), kRecords - 1u);
    // Appends after recovery extend the clean prefix.
    ASSERT_TRUE((*j)->append("row", "post_recovery", "v").ok());
  }
  auto again = CheckpointJournal::open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->stats().records_loaded, kRecords);  // 47 + the re-append
  EXPECT_EQ((*again)->stats().truncated_records, 0u);
  EXPECT_TRUE((*again)->has("row", "post_recovery"));
  for (const std::string& key : survivors) {
    EXPECT_TRUE((*again)->has("row", key)) << key;
  }
}

TEST(CheckpointJournal, ConcurrentAppendsAllSurvive) {
  const std::string path = temp_journal_path("concurrent");
  {
    auto j = CheckpointJournal::open(path, true);
    ASSERT_TRUE(j.ok());
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&journal = **j, i] {
        (void)journal.append("row", "g" + std::to_string(i),
                             "payload-" + std::to_string(i));
      });
    }
    pool.wait_idle();
    EXPECT_EQ((*j)->count("row"), 64u);
  }
  auto j = CheckpointJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->stats().records_loaded, 64u);
  EXPECT_EQ((*j)->stats().truncated_records, 0u);
}

}  // namespace
}  // namespace nvo::grid
