// Survey-scale throughput lane: the bounded-memory streaming pipeline
// (lazy cluster realization -> SoA kernel -> spill runs -> k-way merge)
// measured in galaxies/second at 2x10^4 and 10^5, next to the §5 campaign
// data plane it must beat by >= 3x, plus a steady-state allocation audit of
// the merge inner loop (alloc_counter.cpp).
//
// tools/run_bench.sh writes this binary's output to BENCH_survey.json, and
// tools/check_bench.py gates on the 3x campaign multiple (a ratio within
// one run), zero merge-inner-loop allocations, and flat RSS between the two
// survey sizes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/survey.hpp"
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "votable/votable_io.hpp"

namespace {

using namespace nvo;

std::size_t survey_threads() {
  if (const char* env = std::getenv("NVO_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 1;
}

std::string bench_scratch_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "nvo_survey_bench";
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Streaming survey throughput + memory profile.
// ---------------------------------------------------------------------------

void BM_SurveyStreaming(benchmark::State& state) {
  // items_per_second == galaxies measured per wall-clock second through the
  // full streaming pipeline (synthesis + kernel + spill + merge), file-backed
  // so RSS stays flat in the survey size. Arg is the galaxy target.
  const auto target = static_cast<std::size_t>(state.range(0));
  const std::string scratch = bench_scratch_dir();
  std::size_t galaxies = 0;
  double compute_seconds = 0.0;
  double merge_seconds = 0.0;
  std::size_t rss_end_kb = 0;
  std::size_t hwm_kb = 0;
  for (auto _ : state) {
    analysis::SurveyConfig cfg;
    cfg.target_galaxies = target;
    cfg.compute_threads = survey_threads();
    cfg.scratch_dir = scratch;
    cfg.catalog_path = scratch + "/catalog_" + std::to_string(target) + ".vot";
    analysis::Survey survey(cfg);
    auto report = survey.run();
    if (!report.ok()) {
      state.SkipWithError(report.error().to_string().c_str());
      return;
    }
    galaxies += report->galaxies;
    compute_seconds += report->compute_seconds;
    merge_seconds += report->merge_seconds;
    rss_end_kb = report->vm_rss_end_kb;
    hwm_kb = report->vm_hwm_kb;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(galaxies));
  const auto iters = static_cast<double>(state.iterations());
  state.counters["galaxies"] = benchmark::Counter(
      static_cast<double>(galaxies) / iters);
  state.counters["compute_seconds"] = benchmark::Counter(compute_seconds / iters);
  state.counters["merge_seconds"] = benchmark::Counter(merge_seconds / iters);
  state.counters["vm_rss_end_kb"] = benchmark::Counter(static_cast<double>(rss_end_kb));
  state.counters["vm_hwm_kb"] = benchmark::Counter(static_cast<double>(hwm_kb));
}
BENCHMARK(BM_SurveyStreaming)
    ->Arg(20000)
    ->Arg(100000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The §5 campaign data plane at full population scale: the baseline the
// survey lane's 3x multiple is measured against, in the same binary and
// build so the comparison is apples-to-apples.
// ---------------------------------------------------------------------------

void BM_CampaignBaseline(benchmark::State& state) {
  std::size_t galaxies = 0;
  for (auto _ : state) {
    analysis::CampaignConfig config;
    config.population_scale = 1.0;
    config.compute_threads = 2;
    analysis::Campaign campaign(config);
    auto report = campaign.run();
    benchmark::DoNotOptimize(report);
    if (report.ok()) galaxies += report->total_galaxies;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(galaxies));
}
BENCHMARK(BM_CampaignBaseline)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Merge inner loop: zero allocations per merged record.
// ---------------------------------------------------------------------------

core::GalMorphResult synthetic_result(std::size_t run, std::size_t row) {
  core::GalMorphResult r;
  r.galaxy_id = format("SVY%02zu_G%06zu", run, row);
  r.params.valid = true;
  r.params.surface_brightness = -5.1 + 0.001 * static_cast<double>(row % 97);
  r.params.concentration = 2.6 + 0.001 * static_cast<double>(row % 17);
  r.params.asymmetry = 0.083 + 0.001 * static_cast<double>(row % 13);
  r.params.petrosian_r = 6.5;
  r.params.snr = 480.0;
  r.kpc_per_arcsec = 3.17;
  return r;
}

void BM_SurveyMergeSteadyState(benchmark::State& state) {
  // 64-way merge of encoded runs through decode + the incremental VOTable
  // serializer — the exact final-merge hot path. heap_allocs_per_iter covers
  // the whole call (per-call source/heap setup included);
  // merge_inner_allocs is the row-count-independence check: allocations for
  // 2N rows minus allocations for N rows, which must be exactly zero if the
  // per-record loop never touches the heap.
  constexpr std::size_t kRuns = 64;
  const auto rows_per_run = static_cast<std::size_t>(state.range(0));
  const auto build_runs = [](std::size_t rows) {
    std::vector<std::string> runs(kRuns);
    for (std::size_t r = 0; r < kRuns; ++r) {
      for (std::size_t i = 0; i < rows; ++i) {
        analysis::detail::encode_run_line(synthetic_result(r, i), runs[r]);
      }
    }
    return runs;
  };
  const std::vector<std::string> runs = build_runs(rows_per_run);
  const std::vector<std::string> runs2x = build_runs(rows_per_run * 2);
  const auto ptrs_of = [](const std::vector<std::string>& rs) {
    std::vector<const std::string*> p;
    p.reserve(rs.size());
    for (const std::string& r : rs) p.push_back(&r);
    return p;
  };
  const std::vector<const std::string*> ptrs = ptrs_of(runs);
  const std::vector<const std::string*> ptrs2x = ptrs_of(runs2x);

  votable::Row row;
  std::string xml;
  xml.reserve(1 << 22);
  bool decode_ok = true;
  const auto merge_once = [&](const std::vector<const std::string*>& sources) {
    votable::VotableXmlStream stream;
    xml.clear();
    (void)analysis::detail::merge_encoded_runs(
        sources, [&](const std::string& line) {
          decode_ok &= analysis::detail::decode_run_line(line, row);
          stream.row(row, xml);
          if (xml.size() > (1u << 21)) xml.clear();
        });
  };
  merge_once(ptrs2x);  // warm row/line buffers to their steady-state sizes

  const std::uint64_t a0 = bench::heap_allocs();
  merge_once(ptrs);
  const std::uint64_t a1 = bench::heap_allocs();
  merge_once(ptrs2x);
  const std::uint64_t a2 = bench::heap_allocs();
  const auto inner_allocs =
      static_cast<double>(a2 - a1) - static_cast<double>(a1 - a0);

  const std::uint64_t before = bench::heap_allocs();
  for (auto _ : state) {
    merge_once(ptrs);
    benchmark::DoNotOptimize(xml.data());
  }
  if (!decode_ok) {
    state.SkipWithError("spill codec round-trip failed");
    return;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRuns * rows_per_run));
  bench::report_allocs(state, before);
  state.counters["merge_inner_allocs"] = benchmark::Counter(inner_allocs);
}
BENCHMARK(BM_SurveyMergeSteadyState)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("survey_compute_threads",
                              std::to_string(survey_threads()));
  return nvo::bench::run_benchmarks(argc, argv);
}
