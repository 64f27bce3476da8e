// S5 — Paper §5 "Results and Conclusions": the full eight-cluster campaign.
// "The number of galaxies processed for each cluster ranged from 37 to 561.
// To carry out the computations, we used three Condor pools ... there were
// a total of 1152 compute jobs executed. The computations were performed on
// a total of 1525 images, corresponding to 30MB of data. Staging the data
// in and out of the computations involved the transfer of 2295 files."
//
// Runs the campaign at full population scale and prints the same accounting
// columns next to the paper's numbers, plus the per-cluster Dressler
// results. Absolute agreement is not expected (our substrate is a
// simulator; the paper's job count also reflects retries and cached
// partial runs) — the shape is what must hold: 8 clusters, 37..561
// galaxies, ~1.5k images, tens of MB, transfers > images, 3 pools, and the
// density-morphology relation rediscovered.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "services/federation.hpp"
#include "votable/table.hpp"
#include "votable/votable_io.hpp"

namespace {

using namespace nvo;

/// A morphology-catalog-shaped table (the VOTable that rides every compute
/// round-trip): short string id, positional/photometric doubles, a validity
/// flag, and a long cutout access URL.
votable::Table make_codec_table(std::size_t rows) {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({
      Field{"id", DataType::kString, "", "meta.id", "galaxy id"},
      Field{"ra", DataType::kDouble, "deg", "pos.eq.ra", ""},
      Field{"dec", DataType::kDouble, "deg", "pos.eq.dec", ""},
      Field{"redshift", DataType::kDouble, "", "src.redshift", ""},
      Field{"concentration", DataType::kDouble, "", "", ""},
      Field{"asymmetry", DataType::kDouble, "", "", ""},
      Field{"mean_sb", DataType::kDouble, "mag/arcsec2", "", ""},
      Field{"valid", DataType::kBool, "", "", ""},
      Field{"cutout_url", DataType::kString, "", "meta.ref.url", ""},
  });
  t.name = "CODEC_BENCH";
  for (std::size_t i = 0; i < rows; ++i) {
    const double ra = 200.0 + 0.001 * static_cast<double>(i);
    const double dec = -5.0 + 0.0007 * static_cast<double>(i);
    (void)t.append_row({
        Value::of_string("MS0906_" + std::to_string(i)),
        Value::of_double(ra),
        Value::of_double(dec),
        Value::of_double(0.17),
        Value::of_double(2.6031 + 0.001 * static_cast<double>(i % 17)),
        Value::of_double(0.0831 + 0.001 * static_cast<double>(i % 13)),
        Value::of_double(21.407),
        Value::of_bool(i % 23 != 0),
        Value::of_string("http://archive.stsci.sim/cutout/image?POS=" +
                         std::to_string(ra) + "," + std::to_string(dec) +
                         "&SIZE=0.017778"),
    });
  }
  return t;
}

void print_s5() {
  // NVO_S5_SCALE=0.2 gives a quick look; default is the paper's full scale.
  double scale = 1.0;
  if (const char* env = std::getenv("NVO_S5_SCALE")) scale = std::atof(env);

  std::printf("=== Section 5: the eight-cluster campaign (population scale "
              "%.2f) ===\n",
              scale);
  analysis::CampaignConfig config;
  config.population_scale = scale;
  config.compute_threads = 2;
  analysis::Campaign campaign(config);
  obs::MetricsRegistry registry;
  campaign.register_metrics(registry);
  auto report = campaign.run();
  if (!report.ok()) {
    std::printf("ERROR: %s\n", report.error().to_string().c_str());
    return;
  }
  std::printf("%s\n", report->to_text().c_str());

  // NVO_S5_METRICS_OUT=<path> dumps the unified metrics snapshot of the
  // campaign run; tools/run_bench.sh embeds it in BENCH_s5.json.
  if (const char* out = std::getenv("NVO_S5_METRICS_OUT")) {
    std::ofstream f(out, std::ios::binary);
    if (f) {
      f << registry.snapshot().to_json();
      std::printf("wrote metrics snapshot to %s\n", out);
    } else {
      std::printf("WARNING: cannot write metrics snapshot to %s\n", out);
    }
  }

  std::printf("%-28s %14s %14s\n", "quantity", "paper", "measured");
  std::printf("%-28s %14s %14zu\n", "clusters analyzed", "8",
              report->clusters.size());
  std::printf("%-28s %14s %7zu..%zu\n", "galaxies per cluster", "37..561",
              report->min_galaxies, report->max_galaxies);
  std::printf("%-28s %14s %14zu\n", "images processed", "1525",
              report->total_images_fetched);
  std::printf("%-28s %14s %14zu\n", "compute jobs", "1152",
              report->total_compute_jobs);
  std::printf("%-28s %14s %14zu\n", "files transferred", "2295",
              report->total_transfer_jobs + report->total_images_fetched);
  std::printf("%-28s %14s %11.1f MB\n", "data moved", "30 MB",
              static_cast<double>(report->total_bytes_transferred) / 1e6);
  std::printf("%-28s %14s %14zu\n", "Condor pools", "3", report->pools_used);
  std::printf("%-28s %14s %11zu / %zu\n", "Dressler relation found",
              "yes (by hand)", report->clusters_with_relation,
              report->clusters.size());
  std::printf("\nper-cluster Dressler summary (largest cluster):\n%s\n",
              analysis::report_to_text(report->clusters.front().dressler).c_str());
}

void BM_CampaignScaled(benchmark::State& state) {
  // Wall-clock cost of an entire (scaled) campaign, dominated by cutout
  // synthesis + the real morphology kernel.
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    analysis::CampaignConfig config;
    config.population_scale = scale;
    config.compute_threads = 2;
    analysis::Campaign campaign(config);
    auto report = campaign.run();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CampaignScaled)->Arg(5)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_CampaignThroughput(benchmark::State& state) {
  // End-to-end galaxies/second: the headline data-plane number. Arg is the
  // population scale in percent. items_per_second == galaxies analyzed per
  // wall-clock second, total_sim_seconds tracks the simulated-WAN makespan.
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  std::size_t galaxies = 0;
  double sim_seconds = 0.0;
  for (auto _ : state) {
    analysis::CampaignConfig config;
    config.population_scale = scale;
    config.compute_threads = 2;
    analysis::Campaign campaign(config);
    auto report = campaign.run();
    benchmark::DoNotOptimize(report);
    if (report.ok()) {
      galaxies += report->total_galaxies;
      sim_seconds += report->total_sim_seconds;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(galaxies));
  state.counters["total_sim_seconds"] = benchmark::Counter(
      sim_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CampaignThroughput)->Arg(15)->Unit(benchmark::kMillisecond);

/// Serial fetch bill and pipelined end-to-end window of one campaign,
/// summed over its compute-service requests (simulated seconds). The
/// campaign report's own total folds in portal-side query time, which the
/// brownout does not touch and which would dilute the penalties this
/// benchmark exists to measure.
struct ServiceSeconds {
  double fetch = 0.0;
  double total = 0.0;
};

ServiceSeconds campaign_service_seconds(analysis::Campaign& campaign,
                                        const analysis::CampaignReport& report) {
  ServiceSeconds out;
  for (const auto& c : report.clusters) {
    if (const portal::ServiceTrace* t = campaign.compute_service().trace(
            c.portal_trace.compute_request_id)) {
      out.fetch += t->image_fetch_sim_ms / 1000.0;
      out.total += t->total_sim_seconds;
    }
  }
  return out;
}

void BM_PipelineOverlap(benchmark::State& state) {
  // The pipelined-dataflow headline: a sustained archive brownout adds 250
  // sim-ms of latency to every cutout fetch. A phase-barriered executor
  // bills fetches serially in front of the DAG, so its penalty is exactly
  // the growth of the serial fetch bill (its makespan does not depend on
  // fetch latency). Each iteration runs the same seeded campaign clean and
  // browned out and reports
  //   absorption = delta serial fetch bill / delta pipelined sim-seconds
  // (tools/check_bench.py gates on >= 5x). The brownout catalogs must equal
  // the clean ones — a schedule that changed science output would be a
  // bug, not a win.
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  auto run = [scale](bool brownout, ServiceSeconds& seconds,
                     std::vector<std::string>& catalogs) {
    analysis::CampaignConfig config;
    config.population_scale = scale;
    config.compute_threads = 2;
    if (brownout) {
      config.chaos.brownout(services::Federation::kMastHost, 1.0, 250.0, 0.0,
                            1e15);
    }
    analysis::Campaign campaign(config);
    auto report = campaign.run();
    if (!report.ok()) return false;
    const ServiceSeconds s = campaign_service_seconds(campaign, *report);
    seconds.fetch += s.fetch;
    seconds.total += s.total;
    for (const auto& c : report->clusters) catalogs.push_back(c.catalog_xml);
    return true;
  };
  ServiceSeconds clean, browned;
  for (auto _ : state) {
    std::vector<std::string> clean_cat, browned_cat;
    if (!run(false, clean, clean_cat) || !run(true, browned, browned_cat)) {
      state.SkipWithError("campaign run failed");
      return;
    }
    if (clean_cat != browned_cat) {
      state.SkipWithError("brownout catalogs diverged from the clean run");
      return;
    }
  }
  const double iters = static_cast<double>(state.iterations());
  const double serial_penalty = (browned.fetch - clean.fetch) / iters;
  const double pipelined_penalty = (browned.total - clean.total) / iters;
  state.counters["clean_fetch_sim_seconds"] = benchmark::Counter(clean.fetch / iters);
  state.counters["brownout_fetch_sim_seconds"] =
      benchmark::Counter(browned.fetch / iters);
  state.counters["clean_sim_seconds"] = benchmark::Counter(clean.total / iters);
  state.counters["brownout_sim_seconds"] = benchmark::Counter(browned.total / iters);
  state.counters["absorption"] = benchmark::Counter(
      pipelined_penalty > 0.0 ? serial_penalty / pipelined_penalty : 0.0);
}
BENCHMARK(BM_PipelineOverlap)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_VotableSerialize(benchmark::State& state) {
  // Steady-state serialization of a morphology-catalog-shaped table into a
  // reused buffer (the data plane's hot path): after the first iteration
  // grows the buffer, heap_allocs_per_iter must be zero.
  const votable::Table table = make_codec_table(static_cast<std::size_t>(state.range(0)));
  std::string xml;
  votable::to_votable_xml(table, xml);  // warm the buffer outside the loop
  const std::uint64_t before = bench::heap_allocs();
  for (auto _ : state) {
    votable::to_votable_xml(table, xml);
    benchmark::DoNotOptimize(xml.data());
  }
  bench::report_allocs(state, before);
  state.SetBytesProcessed(static_cast<std::int64_t>(xml.size() * state.iterations()));
}
BENCHMARK(BM_VotableSerialize)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_VotableParse(benchmark::State& state) {
  // Steady-state parse back into a reused table: the reader recycles the
  // table's cell storage when the schema matches, so re-parsing the same
  // document shape is allocation-free.
  const votable::Table table = make_codec_table(static_cast<std::size_t>(state.range(0)));
  const std::string xml = votable::to_votable_xml(table);
  votable::VotableReader reader;
  votable::Table parsed;
  if (auto status = reader.read(xml, parsed); !status.ok()) {
    state.SkipWithError(status.error().to_string().c_str());
    return;
  }
  const std::uint64_t before = bench::heap_allocs();
  for (auto _ : state) {
    (void)reader.read(xml, parsed);
    benchmark::DoNotOptimize(parsed.num_rows());
  }
  bench::report_allocs(state, before);
  state.SetBytesProcessed(static_cast<std::int64_t>(xml.size() * state.iterations()));
}
BENCHMARK(BM_VotableParse)->Arg(512)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_s5();
  benchmark::AddCustomContext("campaign_compute_threads", "2");
  return nvo::bench::run_benchmarks(argc, argv);
}
