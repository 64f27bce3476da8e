// Pipelined dataflow executor invariants. The compute service has one
// executor: stage-in overlapped with kernels, ready-on-data DAG dispatch and
// incremental catalog merge. These tests pin what that schedule must not
// change — catalogs equal a test-side phase-barriered reference (fetch every
// cutout, run every kernel, apply the grid's verdicts, concat) in every
// completion order, under chaos, and across kill/resume — and that an
// archive brownout is absorbed by the overlap instead of billed serially.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "analysis/campaign.hpp"
#include "core/galmorph.hpp"
#include "grid/dagman.hpp"
#include "grid/threadpool.hpp"
#include "pegasus/planner.hpp"
#include "portal/compute_service.hpp"
#include "portal/streaming_merge.hpp"
#include "portal/transforms.hpp"
#include "services/federation.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"

namespace nvo::analysis {
namespace {

CampaignConfig small_config(std::uint64_t seed = 20031115) {
  CampaignConfig config;
  config.seed = seed;
  config.population_scale = 0.03;  // clusters of ~8-17 members
  config.compute_threads = 2;
  return config;
}

/// A sustained brownout on the cutout archive: 250 sim-ms extra latency on
/// every stage-in fetch, nothing else.
CampaignConfig browned_out(CampaignConfig config) {
  config.chaos.brownout(services::Federation::kMastHost,
                        /*bandwidth_factor=*/1.0,
                        /*extra_latency_ms=*/250.0, 0.0, 1e15);
  return config;
}

/// Serial fetch bill and pipelined end-to-end window of a campaign, summed
/// over its compute-service requests (simulated seconds).
struct ServiceSeconds {
  double fetch = 0.0;
  double total = 0.0;
};

ServiceSeconds service_seconds(Campaign& campaign, const CampaignReport& report) {
  ServiceSeconds out;
  for (const ClusterOutcome& c : report.clusters) {
    const portal::ServiceTrace* t =
        campaign.compute_service().trace(c.portal_trace.compute_request_id);
    if (!t) continue;
    out.fetch += t->image_fetch_sim_ms / 1000.0;
    out.total += t->total_sim_seconds;
  }
  return out;
}

/// The catalog a phase-barriered executor would emit for a finished request:
/// every cutout fetched straight from the fabric, every kernel run with the
/// service's default args and the row's redshift, every row whose grid node
/// failed voided, then one batch concat.
std::string barriered_reference(Campaign& campaign, const votable::Table& input,
                                const portal::ServiceTrace& trace,
                                const std::string& out_lfn) {
  const auto id_col = input.column_index("id");
  const auto url_col = input.column_index("cutout_url");
  const auto z_col = input.column_index("redshift");
  std::vector<core::GalMorphResult> results;
  for (std::size_t i = 0; i < input.num_rows(); ++i) {
    const std::string id = *input.row(i)[*id_col].as_string();
    auto response = campaign.fabric().get(*input.row(i)[*url_col].as_string());
    EXPECT_TRUE(response.ok() && response->status == 200) << id;
    core::GalMorphArgs args = campaign.compute_service().config().default_args;
    if (z_col) {
      if (const auto z = input.row(i)[*z_col].as_number()) args.redshift = *z;
    }
    results.push_back(core::run_gal_morph_bytes(
        id, response.ok() ? response->body : std::vector<std::uint8_t>{}, args));
    const grid::NodeResult* nr = trace.execution.result_for("m_" + id);
    if (nr && nr->outcome == grid::NodeOutcome::kFailed) {
      results.back().params.valid = false;
      results.back().params.failure_reason = "grid job failed";
    }
  }
  return votable::to_votable_xml(core::concat_results(results, out_lfn));
}

// ---------------------------------------------------------------------------
// Byte identity: pipelined service vs the barriered reference
// ---------------------------------------------------------------------------

TEST(Dataflow, CatalogsMatchBarrieredReferenceAcrossSeedsAndBrownout) {
  std::size_t clusters_checked = 0;
  for (const std::uint64_t seed : {20031115ull, 7ull, 40961024ull}) {
    for (const bool brownout : {false, true}) {
      CampaignConfig config = small_config(seed);
      if (brownout) config = browned_out(config);
      Campaign campaign(config);
      for (const sim::Cluster& cluster : campaign.universe().clusters()) {
        portal::Portal::AnalysisRun run;
        run.cluster = run.out_name = cluster.name();
        while (!run.finished()) campaign.portal().advance(run);
        ASSERT_TRUE(run.ok()) << run.error().to_string();
        // The compute service's input: the catalog rows with a cutout.
        const auto url_col = run.with_refs.column_index("cutout_url");
        ASSERT_TRUE(url_col.has_value());
        const votable::Table input =
            votable::select(run.with_refs, [&](const votable::Row& row) {
              const auto url = row[*url_col].as_string();
              return url && !url->empty();
            });
        const portal::ServiceTrace* trace =
            campaign.compute_service().trace(run.trace.compute_request_id);
        ASSERT_NE(trace, nullptr) << cluster.name();
        const std::string out_lfn = portal::output_votable_lfn(cluster.name());
        const std::string* xml = campaign.compute_service().result_xml(out_lfn);
        ASSERT_NE(xml, nullptr) << cluster.name();
        EXPECT_EQ(*xml, barriered_reference(campaign, input, *trace, out_lfn))
            << "seed " << seed << " brownout " << brownout << " cluster "
            << cluster.name();
        ++clusters_checked;
      }
    }
  }
  EXPECT_EQ(clusters_checked, 48u);
}

// ---------------------------------------------------------------------------
// Brownout-penalty absorption
// ---------------------------------------------------------------------------

TEST(Dataflow, BrownoutLatencyOverlapsWithKernelTime) {
  // A brownout adds 250 sim-ms to every stage-in fetch. A barriered executor
  // bills fetches serially in front of the DAG, so its penalty is exactly
  // the growth of the serial fetch bill. The pipelined executor overlaps
  // fetches with each other (the stage-in window) and with compute, so its
  // end-to-end window grows by far less — with byte-identical science.
  Campaign clean(small_config());
  Campaign browned(browned_out(small_config()));
  auto rc = clean.run();
  auto rb = browned.run();
  ASSERT_TRUE(rc.ok()) << rc.error().to_string();
  ASSERT_TRUE(rb.ok()) << rb.error().to_string();

  ASSERT_EQ(rc->clusters.size(), rb->clusters.size());
  for (std::size_t i = 0; i < rc->clusters.size(); ++i) {
    EXPECT_EQ(rc->clusters[i].catalog_xml, rb->clusters[i].catalog_xml)
        << rc->clusters[i].name;
  }

  const ServiceSeconds c = service_seconds(clean, rc.value());
  const ServiceSeconds b = service_seconds(browned, rb.value());
  const double serial_penalty = b.fetch - c.fetch;
  const double pipelined_penalty = b.total - c.total;
  ASSERT_GT(serial_penalty, 0.0);
  ASSERT_GT(pipelined_penalty, 0.0);
  EXPECT_GE(serial_penalty / pipelined_penalty, 5.0)
      << "serial fetch bill +" << serial_penalty << "s vs pipelined +"
      << pipelined_penalty << "s";
}

// ---------------------------------------------------------------------------
// Kill/resume
// ---------------------------------------------------------------------------

TEST(Dataflow, KillResumeMatchesFaultFreeRun) {
  const std::string journal_path =
      testing::TempDir() + "nvo_dataflow_resume.journal";
  std::remove(journal_path.c_str());

  // Reference: journal-free, fault-free.
  auto reference = Campaign(small_config()).run();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();

  // Campaign killed mid-DAG; the journal holds the partial run.
  {
    CampaignConfig config = small_config();
    config.journal_path = journal_path;
    config.chaos.kill_after_nodes(20);
    Campaign campaign(config);
    ASSERT_NE(campaign.journal(), nullptr);
    auto report = campaign.run();
    ASSERT_FALSE(report.ok()) << "the chaos kill must abort the campaign";
  }

  // Resume on the same journal: re-executes only the unfinished tail,
  // catalogs byte-identical to the fault-free reference.
  CampaignConfig resume_config = small_config();
  resume_config.journal_path = journal_path;
  Campaign resumed(resume_config);
  ASSERT_NE(resumed.journal(), nullptr);
  EXPECT_GT(resumed.journal()->stats().records_loaded, 0u);
  auto report = resumed.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  ASSERT_EQ(report->clusters.size(), reference->clusters.size());
  for (std::size_t i = 0; i < report->clusters.size(); ++i) {
    EXPECT_EQ(report->clusters[i].catalog_xml,
              reference->clusters[i].catalog_xml)
        << report->clusters[i].name;
  }
  EXPECT_GT(report->total_nodes_resumed + report->clusters_resumed, 0u);
  std::remove(journal_path.c_str());
}

// ---------------------------------------------------------------------------
// Stage-in ready times: list scheduling onto the stage-in channels
// ---------------------------------------------------------------------------

vds::DagNode transfer_node(const std::string& id, const std::string& source,
                           const std::string& file) {
  vds::DagNode n;
  n.id = id;
  n.type = vds::JobType::kTransfer;
  n.site = "remote";
  n.source_site = source;
  n.file = file;
  return n;
}

TEST(Dataflow, StageInReadyTimesListScheduleFetchesOntoChannels) {
  // Nine fetches on eight channels: f0 takes 50 ms, f1..f8 take 100 ms.
  portal::FetchTimeline fetches;
  pegasus::PlanResult plan;
  for (int i = 0; i < 9; ++i) {
    const std::string lfn = "f" + std::to_string(i) + ".fit";
    fetches.emplace_back(lfn, i == 0 ? 50.0 : 100.0);
    plan.data_inputs["m_" + std::to_string(i)] = {lfn};
  }
  // Inputs that were resident before the run: a replica-cache hit and a
  // journal-replayed image never appear in the fetch timeline.
  plan.data_inputs["m_hit"] = {"hit.fit"};
  plan.data_inputs["m_journal"] = {"journal.fit"};
  // A compute node with one fetched and one resident input.
  plan.data_inputs["m_mixed"] = {"hit.fit", "f2.fit"};
  // Inter-site transfers: only those sourced at the cache site wait for
  // the file to arrive there.
  ASSERT_TRUE(plan.concrete.add_node(transfer_node("x_f3", "isi", "f3.fit")).ok());
  ASSERT_TRUE(plan.concrete.add_node(transfer_node("x_f8", "isi", "f8.fit")).ok());
  ASSERT_TRUE(plan.concrete.add_node(transfer_node("x_remote", "uc", "f4.fit")).ok());
  ASSERT_TRUE(plan.concrete.add_node(transfer_node("x_hit", "isi", "hit.fit")).ok());

  const std::map<std::string, double> ready =
      portal::stage_in_ready_times(fetches, plan, "isi");

  EXPECT_DOUBLE_EQ(ready.at("m_0"), 0.05);
  for (int i = 1; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(ready.at("m_" + std::to_string(i)), 0.1) << i;
  }
  // The 9th fetch waits for the earliest-free channel (f0's, at 50 ms).
  EXPECT_DOUBLE_EQ(ready.at("m_8"), 0.15);
  EXPECT_EQ(ready.count("m_hit"), 0u);
  EXPECT_EQ(ready.count("m_journal"), 0u);
  EXPECT_DOUBLE_EQ(ready.at("m_mixed"), 0.1);
  EXPECT_DOUBLE_EQ(ready.at("x_f3"), 0.1);
  EXPECT_DOUBLE_EQ(ready.at("x_f8"), 0.15);
  EXPECT_EQ(ready.count("x_remote"), 0u);
  EXPECT_EQ(ready.count("x_hit"), 0u);
  EXPECT_EQ(ready.size(), 12u);  // 9 fetched + mixed compute, 2 transfers

  // Nothing fetched (a fully warm cache): no node waits.
  EXPECT_TRUE(portal::stage_in_ready_times({}, plan, "isi").empty());
}

// ---------------------------------------------------------------------------
// StreamingCatalogWriter: every completion order converges
// ---------------------------------------------------------------------------

core::GalMorphResult synthetic_result(std::size_t i) {
  core::GalMorphResult r;
  r.galaxy_id = "G" + std::to_string(i);
  r.redshift = 0.1 + 0.01 * static_cast<double>(i);
  r.kpc_per_arcsec = 1.5 + 0.1 * static_cast<double>(i);
  r.params.valid = i % 5 != 3;  // a few kernel-invalid rows
  if (!r.params.valid) r.params.failure_reason = "undecodable FITS";
  r.params.surface_brightness = 20.0 + 0.25 * static_cast<double>(i);
  r.params.concentration = 2.0 + 0.05 * static_cast<double>(i);
  r.params.asymmetry = 0.1 + 0.01 * static_cast<double>(i);
  r.params.petrosian_r = 8.0 + 0.5 * static_cast<double>(i);
  r.params.snr = 30.0 - 0.2 * static_cast<double>(i);
  return r;
}

TEST(Dataflow, StreamingWriterConvergesForRandomizedCompletionOrders) {
  constexpr std::size_t kRows = 41;

  // Expected bytes: the batch path with grid-failure overrides applied.
  std::vector<core::GalMorphResult> expected_rows;
  std::vector<bool> grid_failed(kRows, false);
  for (std::size_t i = 0; i < kRows; ++i) {
    expected_rows.push_back(synthetic_result(i));
    if (i % 7 == 2) grid_failed[i] = true;
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    if (grid_failed[i]) {
      expected_rows[i].params.valid = false;
      expected_rows[i].params.failure_reason = "grid job failed";
    }
  }
  const std::string expected =
      votable::to_votable_xml(core::concat_results(expected_rows, "stream.vot"));

  for (const std::uint32_t seed : {1u, 2u, 3u, 17u, 99u}) {
    // Fresh (un-overridden) kernel results: the writer applies the grid
    // failure at emission time, like the service does.
    std::vector<core::GalMorphResult> rows;
    for (std::size_t i = 0; i < kRows; ++i) rows.push_back(synthetic_result(i));

    // Interleave the 2*kRows marks (kernel done, node final) in a random
    // order; the emitted document must not depend on it.
    struct Mark {
      std::size_t index;
      bool kernel;
    };
    std::vector<Mark> marks;
    for (std::size_t i = 0; i < kRows; ++i) {
      marks.push_back({i, true});
      marks.push_back({i, false});
    }
    std::shuffle(marks.begin(), marks.end(), std::mt19937(seed));

    portal::StreamingCatalogWriter writer("stream.vot", rows);
    std::size_t emitted_checkpoint = 0;
    for (const Mark& m : marks) {
      if (m.kernel) {
        writer.mark_kernel_done(m.index);
      } else {
        writer.mark_node_final(m.index, grid_failed[m.index]);
        // Idempotence: a blanket re-mark must not duplicate or flip rows.
        writer.mark_node_final(m.index, !grid_failed[m.index]);
      }
      // Progress is monotone in emitted rows.
      EXPECT_GE(writer.rows_emitted(), emitted_checkpoint);
      emitted_checkpoint = writer.rows_emitted();
    }
    EXPECT_EQ(writer.rows_emitted(), kRows);
    EXPECT_EQ(writer.finish(), expected) << "seed " << seed;
  }
}

TEST(Dataflow, StreamingWriterHandlesConcurrentKernelMarks) {
  constexpr std::size_t kRows = 64;
  std::vector<core::GalMorphResult> rows;
  std::vector<core::GalMorphResult> expected_rows;
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(synthetic_result(i));
    expected_rows.push_back(synthetic_result(i));
  }
  const std::string expected =
      votable::to_votable_xml(core::concat_results(expected_rows, "conc.vot"));

  portal::StreamingCatalogWriter writer("conc.vot", rows);
  // Kernel completions race in from pool threads (out of order) while the
  // caller thread finalizes node outcomes in order — the service's actual
  // concurrency shape.
  grid::ThreadPool pool(4);
  std::vector<std::size_t> order(kRows);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(5));
  for (const std::size_t i : order) {
    pool.submit([&writer, i] { writer.mark_kernel_done(i); });
  }
  for (std::size_t i = 0; i < kRows; ++i) writer.mark_node_final(i, false);
  pool.wait_idle();
  EXPECT_EQ(writer.rows_emitted(), kRows);
  EXPECT_EQ(writer.finish(), expected);
}

// ---------------------------------------------------------------------------
// DagManSim ready-on-data dispatch
// ---------------------------------------------------------------------------

grid::Grid one_site_grid(int slots) {
  grid::Grid g;
  (void)g.add_site({"s", slots, 1.0, 10.0, 100.0});
  return g;
}

vds::DagNode compute_node(const std::string& id) {
  vds::DagNode n;
  n.id = id;
  n.type = vds::JobType::kCompute;
  n.site = "s";
  return n;
}

TEST(Dataflow, ReadyTimeDelaysDispatchWithoutBlockingOthers) {
  const grid::Grid g = one_site_grid(4);
  vds::Dag dag;
  (void)dag.add_node(compute_node("a"));
  (void)dag.add_node(compute_node("b"));

  grid::DagManSim dagman(g, grid::JobCostModel{}, grid::FailureModel{});
  dagman.set_ready_times({{"a", 5.0}});
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  // "a" waits for its data (ready 5.0) then runs 2.0s; "b" is unconstrained
  // and finishes at 2.0 while "a" is still waiting.
  const grid::NodeResult* a = report->result_for("a");
  const grid::NodeResult* b = report->result_for("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->start_seconds, 5.0);
  EXPECT_DOUBLE_EQ(a->end_seconds, 7.0);
  EXPECT_DOUBLE_EQ(b->start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(b->end_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 7.0);
}

TEST(Dataflow, ReadyTimeComposesWithDependencyEdges) {
  const grid::Grid g = one_site_grid(4);
  vds::Dag dag;
  (void)dag.add_node(compute_node("parent"));
  (void)dag.add_node(compute_node("child"));
  (void)dag.add_edge("parent", "child");

  grid::DagManSim dagman(g, grid::JobCostModel{}, grid::FailureModel{});
  // The child's data lands after its parent finishes: it must wait for the
  // later of the two constraints.
  dagman.set_ready_times({{"child", 10.0}});
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->result_for("child")->start_seconds, 10.0);
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 12.0);

  // Data already there when the parent finishes: no extra wait.
  grid::DagManSim dagman2(g, grid::JobCostModel{}, grid::FailureModel{});
  dagman2.set_ready_times({{"child", 1.0}});
  auto report2 = dagman2.run(dag);
  ASSERT_TRUE(report2.ok());
  EXPECT_DOUBLE_EQ(report2->result_for("child")->start_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report2->makespan_seconds, 4.0);
}

TEST(Dataflow, FailureDrawsAreScheduleInvariant) {
  // The same seed must reach the same per-node verdicts whether nodes
  // dispatch immediately (barriered) or on staggered ready times
  // (pipelined): draws are keyed per (node, draw index), not on the shared
  // event order.
  const grid::Grid g = one_site_grid(2);
  vds::Dag dag;
  for (int i = 0; i < 8; ++i) {
    (void)dag.add_node(compute_node("n" + std::to_string(i)));
  }
  grid::FailureModel failure;
  failure.compute_failure_rate = 0.4;
  failure.max_retries = 1;

  grid::DagManSim barriered(g, grid::JobCostModel{}, failure, 99);
  auto rb = barriered.run(dag);
  ASSERT_TRUE(rb.ok());

  grid::DagManSim pipelined(g, grid::JobCostModel{}, failure, 99);
  std::map<std::string, double> ready;
  for (int i = 0; i < 8; ++i) {
    ready["n" + std::to_string(i)] = 0.75 * static_cast<double>(8 - i);
  }
  pipelined.set_ready_times(std::move(ready));
  auto rp = pipelined.run(dag);
  ASSERT_TRUE(rp.ok());

  for (int i = 0; i < 8; ++i) {
    const std::string id = "n" + std::to_string(i);
    const grid::NodeResult* b = rb->result_for(id);
    const grid::NodeResult* p = rp->result_for(id);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(b->outcome, p->outcome) << id;
    EXPECT_EQ(b->attempts, p->attempts) << id;
  }
  EXPECT_EQ(rb->jobs_succeeded, rp->jobs_succeeded);
  EXPECT_EQ(rb->retries, rp->retries);
}

// ---------------------------------------------------------------------------
// ThreadPool: shutdown/drain hazards
// ---------------------------------------------------------------------------

TEST(Dataflow, ThreadPoolSubmitDuringDrainRunsEverything) {
  // Multiple producers hammer submit while another thread repeatedly drains
  // with wait_idle: no task may be lost to a drain/submit race (TSan lane
  // checks the synchronization; this checks the count).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  std::atomic<int> ran{0};
  {
    grid::ThreadPool pool(3);
    std::atomic<bool> done{false};
    std::thread drainer([&] {
      while (!done.load()) pool.wait_idle();
    });
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &ran] {
          for (int i = 0; i < kPerProducer; ++i) {
            pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      }
    }
    done.store(true);
    drainer.join();
    pool.wait_idle();
  }
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(Dataflow, ThreadPoolDestructorRunsTasksSubmittedByTasks) {
  // A task submitted by a running task can land after the destructor's
  // wait_idle returned and the workers were told to stop. The destructor
  // must still run it (inline drain), or its side effects — in-flight
  // counters, promised results — would be silently dropped.
  std::atomic<int> ran{0};
  {
    grid::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&pool, &ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    // Destructor runs here, possibly racing the resubmissions.
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(Dataflow, ThreadPoolIdleTimeIsMonotoneAndStableWhenParked) {
  grid::ThreadPool pool(2);
  pool.submit([] {});
  pool.wait_idle();
  const double first = pool.idle_ms();
  EXPECT_GE(first, 0.0);
  // Waking the workers again can only add parked time.
  pool.submit([] {});
  pool.wait_idle();
  const double second = pool.idle_ms();
  EXPECT_GE(second, first);
  // Stable while no work arrives: the accumulator is updated on wake.
  EXPECT_DOUBLE_EQ(pool.idle_ms(), second);
}

}  // namespace
}  // namespace nvo::analysis
