// galmorph — the command-line morphology tool a downstream astronomer
// would run on their own FITS cutouts.
//
//   usage: galmorph [options] <cutout.fits> [more.fits ...]
//     --redshift <z>      source redshift             (default 0)
//     --pixscale <deg>    pixel scale, deg/pixel      (default 2.777778e-4 = 1")
//     --zeropoint <mag>   photometric zero point      (default 0)
//     --Ho <km/s/Mpc>     Hubble constant             (default 100)
//     --om <Omega_m>      matter density              (default 0.3)
//     --flat <0|1>        flat cosmology              (default 1)
//     --votable <path>    also write results as a VOTable
//     --demo              generate and measure two synthetic galaxies
//
// Portal mode (the full Fig. 5 pipeline on the simulated federation):
//     --portal            run one portal analysis instead of local files
//     --cluster <name>    cluster to analyze            (default MS1621)
//     --scale <s>         population scale              (default 0.05)
//     --trace-out <path>  write a Chrome trace_event file of the run
//                         (load in chrome://tracing or Perfetto)
//     --metrics-out <path> write the unified metrics snapshot as JSON
//     --checkpoint-out <journal>  persist progress (staged replicas, DAG node
//                         completions, morphology rows, catalogs) to a
//                         durable journal as the analysis runs
//     --resume <journal>  resume from an existing journal: finished work is
//                         recovered instead of re-executed (same as
//                         --checkpoint-out on a journal that has content)
//
// Survey mode (the bounded-memory 10^5+ galaxy throughput lane):
//     --survey            sweep a synthetic survey footprint
//     --target <n>        approximate galaxy count       (default 100000)
//     --cutout <px>       cutout size in pixels          (default 64)
//     --out <path>        write the merged VOTable catalog here
//     --scratch <dir>     spill sorted runs to this directory (default:
//                         in-memory runs)
//
// Portal-load mode (the multi-tenant async portal under open-loop load):
//     --portal-load       drive Poisson+burst arrivals through the async
//                         portal and report latency/goodput/shed per tenant
//     --tenants <n>       synthetic tenant count         (default 3)
//     --overload <f>      offered load as a multiple of calibrated
//                         single-stream capacity         (default 2)
//     --requests <n>      arrivals per tenant            (default 10)
//     --seed <n>          arrival-schedule seed          (default 42)
//     --deadline-ms <ms>  end-to-end deadline budget each request carries
//                         (simulated ms; requests the portal cannot finish
//                         in budget expire with partial results; 0 = none)
//     --scale, --metrics-out as in portal mode
//
// Either mode:
//     --threads <n>       compute pool size; NVO_THREADS env is the
//                         fallback (default: portal 2, survey 1)
//
// Prints one line per galaxy: id, validity, SB, C, A, r_p — and exits
// nonzero only on usage errors (bad images produce invalid rows, not
// failures, per the paper's fault-tolerance design).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <cstdlib>

#include "analysis/campaign.hpp"
#include "analysis/survey.hpp"
#include "portal/async_portal.hpp"
#include "portal/load_gen.hpp"
#include "common/strings.hpp"
#include "core/galmorph.hpp"
#include "image/fits.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/galaxy.hpp"
#include "votable/votable_io.hpp"

using namespace nvo;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: galmorph [--redshift z] [--pixscale deg] [--zeropoint m]\n"
               "                [--Ho h] [--om o] [--flat 0|1] [--votable out.vot]\n"
               "                (<cutout.fits> ... | --demo)\n"
               "       galmorph --portal [--cluster name] [--scale s]\n"
               "                [--trace-out trace.json] [--metrics-out metrics.json]\n"
               "                [--checkpoint-out journal] [--resume journal]\n"
               "       galmorph --survey [--target n] [--cutout px] [--out catalog.vot]\n"
               "                [--scratch dir]\n"
               "       galmorph --portal-load [--tenants n] [--overload f] [--requests n]\n"
               "                [--seed n] [--deadline-ms ms] [--scale s]\n"
               "                [--metrics-out metrics.json]\n"
               "       common:  [--threads n]   (or NVO_THREADS in the environment)\n");
}

/// Resolves the compute pool size: --threads wins, then NVO_THREADS, then
/// the mode's default. Returns 0 when unset (caller keeps its default).
std::size_t resolve_threads(int cli_threads) {
  if (cli_threads > 0) return static_cast<std::size_t>(cli_threads);
  if (const char* env = std::getenv("NVO_THREADS")) {
    if (const auto v = parse_double(env); v && *v >= 1.0) {
      return static_cast<std::size_t>(*v);
    }
    std::fprintf(stderr, "ignoring malformed NVO_THREADS=%s\n", env);
  }
  return 0;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

// The full Fig. 5 pipeline against the simulated federation: one cluster
// through portal -> federation queries -> Pegasus plan -> DAGMan ->
// morphology kernel, with the observability layer attached. Emits a Chrome
// trace_event file and/or a unified metrics snapshot on request.
int run_portal_mode(const std::string& cluster, double scale,
                    const std::string& trace_out, const std::string& metrics_out,
                    const std::string& journal_path, std::size_t threads) {
  obs::Tracer tracer;
  analysis::CampaignConfig cfg;
  cfg.population_scale = scale;
  cfg.tracer = &tracer;
  cfg.journal_path = journal_path;
  if (threads > 0) cfg.compute_threads = threads;
  analysis::Campaign campaign(cfg);
  if (!journal_path.empty() && campaign.journal()) {
    std::printf("checkpoint journal %s: %llu records recovered\n",
                journal_path.c_str(),
                static_cast<unsigned long long>(
                    campaign.journal()->stats().records_loaded));
  }

  obs::MetricsRegistry registry;
  campaign.register_metrics(registry);

  const auto outcome = campaign.portal().run_analysis(cluster);
  if (!outcome.ok()) {
    std::fprintf(stderr, "portal analysis failed: %s\n",
                 outcome.error().to_string().c_str());
    for (const portal::ArchiveStatus& a : outcome.trace.archives) {
      if (a.degraded()) {
        std::fprintf(stderr, "  degraded archive %s (%s): %s\n",
                     a.archive.c_str(), a.endpoint.c_str(),
                     a.skipped_reason.c_str());
      }
    }
  } else {
    std::printf("%s: %zu galaxies (%zu valid, %zu invalid), %llu retries\n",
                cluster.c_str(), outcome.trace.galaxies, outcome.trace.valid,
                outcome.trace.invalid,
                static_cast<unsigned long long>(outcome.trace.retries));
    if (const portal::ServiceTrace* t = campaign.compute_service().last_trace()) {
      if (t->journal_hit) {
        std::printf("  catalog recovered whole from the checkpoint journal\n");
      } else if (t->rows_resumed > 0 || t->nodes_resumed > 0) {
        std::printf("  resumed from journal: %zu rows, %zu DAG nodes\n",
                    t->rows_resumed, t->nodes_resumed);
      }
    }
  }

  const obs::MetricsSnapshot snap = registry.snapshot();
  std::printf("-- metrics (%zu spans traced) --\n", tracer.span_count());
  std::printf("fabric.requests        %.0f\n", snap.counter("fabric.requests"));
  std::printf("fabric.failures        %.0f\n", snap.counter("fabric.failures"));
  std::printf("fabric.bytes           %.0f\n",
              snap.counter("fabric.bytes_transferred"));
  std::printf("fabric.now_ms          %.1f\n", snap.gauge("fabric.now_ms"));
  std::printf("cache.replica.hits     %.0f\n", snap.counter("cache.replica.hits"));
  std::printf("cache.replica.misses   %.0f\n", snap.counter("cache.replica.misses"));

  if (!trace_out.empty()) {
    if (!write_text_file(trace_out, tracer.to_chrome_trace())) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu spans, chrome://tracing format)\n",
                trace_out.c_str(), tracer.span_count());
  }
  if (!metrics_out.empty()) {
    if (!write_text_file(metrics_out, snap.to_json())) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return outcome.ok() ? 0 : 1;
}

// The survey throughput lane: lazily realized clusters, cache-less cutout
// synthesis, the SoA kernel, and a streaming k-way catalog merge — memory
// stays flat in the survey size.
int run_survey_mode(std::size_t target, int cutout, const std::string& out_path,
                    const std::string& scratch_dir, std::size_t threads) {
  analysis::SurveyConfig cfg;
  cfg.target_galaxies = target;
  cfg.cutout_size = cutout;
  cfg.catalog_path = out_path;
  cfg.scratch_dir = scratch_dir;
  if (threads > 0) cfg.compute_threads = threads;
  analysis::Survey survey(cfg);
  const auto report = survey.run();
  if (!report.ok()) {
    std::fprintf(stderr, "survey failed: %s\n",
                 report.error().to_string().c_str());
    return 1;
  }
  const analysis::SurveyReport& r = report.value();
  const double gal_per_s =
      r.compute_seconds > 0.0
          ? static_cast<double>(r.galaxies) / r.compute_seconds
          : 0.0;
  std::printf("survey: %zu clusters, %zu galaxies (%zu valid, %zu invalid)\n",
              r.clusters, r.galaxies, r.valid, r.invalid);
  // The calling thread runs the kernel alongside the pool's workers.
  const std::size_t kernel_threads =
      cfg.compute_threads > 1 ? cfg.compute_threads + 1 : 1;
  std::printf("  compute %.2fs (%.0f gal/s, %zu threads), merge %.2fs over "
              "%zu runs (%.1f MiB spilled)\n",
              r.compute_seconds, gal_per_s, kernel_threads,
              r.merge_seconds, r.spill_runs,
              static_cast<double>(r.spill_bytes) / (1024.0 * 1024.0));
  if (r.vm_hwm_kb > 0) {
    std::printf("  rss %zu kB -> %zu kB (hwm %zu kB)\n", r.vm_rss_start_kb,
                r.vm_rss_end_kb, r.vm_hwm_kb);
  }
  if (!out_path.empty()) {
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("catalog: %zu bytes of VOTable XML (use --out to save)\n",
                r.catalog_xml.size());
  }
  return 0;
}

// The multi-tenant async portal under open-loop Poisson+burst load: builds
// a campaign-backed AsyncPortal, calibrates mean service time on a scratch
// campaign, then replays a deterministic arrival schedule and reports
// latency/goodput/shed totals and the per-tenant breakdown.
int run_portal_load_mode(std::size_t tenants, double overload,
                         std::size_t requests, std::uint64_t seed,
                         double deadline_ms, double scale,
                         const std::string& metrics_out, std::size_t threads) {
  analysis::CampaignConfig cfg;
  cfg.population_scale = scale;
  if (threads > 0) cfg.compute_threads = threads;

  const auto clusters_of = [](const analysis::Campaign& campaign) {
    std::vector<portal::ClusterEntry> entries;
    for (const sim::Cluster& c : campaign.universe().clusters()) {
      portal::ClusterEntry entry;
      entry.name = c.name();
      entry.position = c.center();
      entry.redshift = c.redshift();
      entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
      entries.push_back(entry);
    }
    return entries;
  };

  // Calibrate on a throwaway campaign so the measured runs do not warm the
  // load run's caches.
  double mean_service_ms = 0.0;
  {
    analysis::Campaign scratch(cfg);
    std::vector<std::string> names;
    for (const auto& e : clusters_of(scratch)) {
      names.push_back(e.name);
      if (names.size() == 3) break;
    }
    mean_service_ms = portal::measure_mean_service_ms(scratch.portal(), names);
  }
  if (mean_service_ms <= 0.0) {
    std::fprintf(stderr, "portal-load: service-time calibration failed\n");
    return 1;
  }

  analysis::Campaign campaign(cfg);
  portal::AsyncPortal async(campaign.fabric(), campaign.federation(),
                            campaign.compute_service());
  const auto entries = clusters_of(campaign);
  for (const auto& e : entries) async.add_cluster(e);

  obs::MetricsRegistry registry;

  // Tenant i cycles through 3 clusters starting at offset i, so every
  // cluster is wanted by several tenants — the duplicate-derivation load
  // that cross-request memoization exists for.
  std::vector<portal::LoadTenantSpec> specs;
  for (std::size_t i = 0; i < tenants; ++i) {
    portal::LoadTenantSpec spec;
    spec.tenant = format("tenant-%zu", i + 1);
    spec.weight = i == 0 ? 2.0 : 1.0;  // one premium tenant
    spec.deadline_slo_ms = deadline_ms;
    for (std::size_t k = 0; k < 3 && k < entries.size(); ++k) {
      spec.clusters.push_back(entries[(i + k) % entries.size()].name);
    }
    specs.push_back(std::move(spec));
  }

  portal::LoadConfig load;
  load.mean_service_ms = mean_service_ms;
  load.overload = overload;
  load.requests_per_tenant = requests;
  load.seed = seed;
  const portal::LoadOutcome out =
      portal::run_load(async, campaign.fabric(), specs, load);
  async.register_metrics(registry);

  std::printf("portal-load: %zu tenants, %.1fx overload, %zu requests/tenant "
              "(mean service %.0f ms, seed %llu)\n",
              tenants, overload, requests, mean_service_ms,
              static_cast<unsigned long long>(seed));
  std::printf("  %zu submitted: %zu done, %zu partial, %zu failed, %zu shed "
              "(%.1f%%), %zu expired\n",
              out.submitted, out.done, out.partial, out.failed, out.shed,
              100.0 * out.shed_rate, out.expired);
  if (out.deadlines_assigned > 0) {
    std::printf("  deadline SLO %.0f ms: %.1f%% attainment over %zu requests\n",
                deadline_ms, 100.0 * out.deadline_attainment,
                out.deadlines_assigned);
  }
  std::printf("  latency p50 %.0f ms, p99 %.0f ms, max %.0f ms; goodput "
              "%.3f/s over %.1f simulated s\n",
              out.latency.p50_ms, out.latency.p99_ms, out.latency.max_ms,
              out.goodput_per_s, out.sim_elapsed_ms / 1000.0);
  std::printf("  memoization: %llu recomputes, %llu RLS hits, %llu memo "
              "serves, %llu coalesced\n",
              static_cast<unsigned long long>(out.portal.recomputes),
              static_cast<unsigned long long>(out.portal.compute_cache_hits),
              static_cast<unsigned long long>(out.portal.memo_hits),
              static_cast<unsigned long long>(out.portal.coalesced));
  std::printf("  %-12s %9s %6s %6s %6s %7s %10s %10s\n", "tenant", "submitted",
              "done", "shed", "fail", "expired", "p50_ms", "p99_ms");
  for (const auto& [name, t] : out.tenants) {
    std::printf("  %-12s %9zu %6zu %6zu %6zu %7zu %10.0f %10.0f\n", name.c_str(),
                t.submitted, t.done + t.partial, t.shed, t.failed, t.expired,
                t.latency.p50_ms, t.latency.p99_ms);
  }

  if (!metrics_out.empty()) {
    if (!write_text_file(metrics_out, registry.snapshot().to_json())) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return out.failed == 0 ? 0 : 1;
}

image::FitsFile demo_galaxy(sim::MorphType type) {
  sim::GalaxyTruth g;
  g.id = std::string("DEMO_") + sim::to_string(type);
  g.seed = hash64(g.id);
  g.type = type;
  g.total_flux = 9e4;
  g.r_e_pix = 5.0;
  if (type == sim::MorphType::kSpiral) {
    g.sersic_n = 1.0;
    g.arm_amplitude = 0.55;
    g.clumpiness = 0.12;
  }
  image::FitsFile f;
  f.data = sim::render_galaxy(g, 64, {});
  f.header.set_string("OBJECT", g.id, "synthetic demo galaxy");
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  core::GalMorphArgs args;
  std::string votable_path;
  bool demo = false;
  bool portal_mode = false;
  bool survey_mode = false;
  bool portal_load_mode = false;
  double load_tenants = 3;
  double load_overload = 2.0;
  double load_requests = 10;
  double load_seed = 42;
  double load_deadline_ms = 0.0;  // 0 = no end-to-end deadline budget
  std::string cluster = "MS1621";
  double portal_scale = 0.05;
  std::string trace_out;
  std::string metrics_out;
  std::string journal_path;
  int cli_threads = 0;
  double survey_target = 100000;
  double survey_cutout = 64;
  std::string survey_out;
  std::string survey_scratch;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](double& target) -> bool {
      if (i + 1 >= argc) return false;
      const auto v = parse_double(argv[++i]);
      if (!v) return false;
      target = *v;
      return true;
    };
    if (arg == "--redshift") {
      if (!next_value(args.redshift)) { usage(); return 2; }
    } else if (arg == "--pixscale") {
      if (!next_value(args.pix_scale_deg)) { usage(); return 2; }
    } else if (arg == "--zeropoint") {
      if (!next_value(args.zero_point)) { usage(); return 2; }
    } else if (arg == "--Ho") {
      if (!next_value(args.h0)) { usage(); return 2; }
    } else if (arg == "--om") {
      if (!next_value(args.omega_m)) { usage(); return 2; }
    } else if (arg == "--flat") {
      double flat = 1.0;
      if (!next_value(flat)) { usage(); return 2; }
      args.flat = flat != 0.0;
    } else if (arg == "--votable") {
      if (i + 1 >= argc) { usage(); return 2; }
      votable_path = argv[++i];
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--portal") {
      portal_mode = true;
    } else if (arg == "--cluster") {
      if (i + 1 >= argc) { usage(); return 2; }
      cluster = argv[++i];
    } else if (arg == "--scale") {
      if (!next_value(portal_scale)) { usage(); return 2; }
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) { usage(); return 2; }
      trace_out = argv[++i];
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) { usage(); return 2; }
      metrics_out = argv[++i];
    } else if (arg == "--survey") {
      survey_mode = true;
    } else if (arg == "--portal-load") {
      portal_load_mode = true;
    } else if (arg == "--tenants") {
      if (!next_value(load_tenants) || load_tenants < 1) { usage(); return 2; }
    } else if (arg == "--overload") {
      if (!next_value(load_overload) || load_overload <= 0) { usage(); return 2; }
    } else if (arg == "--requests") {
      if (!next_value(load_requests) || load_requests < 1) { usage(); return 2; }
    } else if (arg == "--seed") {
      if (!next_value(load_seed) || load_seed < 0) { usage(); return 2; }
    } else if (arg == "--deadline-ms") {
      if (!next_value(load_deadline_ms) || load_deadline_ms < 0) {
        usage();
        return 2;
      }
    } else if (arg == "--target") {
      if (!next_value(survey_target) || survey_target < 1) { usage(); return 2; }
    } else if (arg == "--cutout") {
      if (!next_value(survey_cutout) || survey_cutout < 8) { usage(); return 2; }
    } else if (arg == "--out") {
      if (i + 1 >= argc) { usage(); return 2; }
      survey_out = argv[++i];
    } else if (arg == "--scratch") {
      if (i + 1 >= argc) { usage(); return 2; }
      survey_scratch = argv[++i];
    } else if (arg == "--threads") {
      double n = 0.0;
      if (!next_value(n) || n < 1) { usage(); return 2; }
      cli_threads = static_cast<int>(n);
    } else if (arg == "--checkpoint-out" || arg == "--resume") {
      // Both point the campaign at a durable journal; open() recovers
      // whatever the file already holds, so --resume is the same switch
      // with intent in its name.
      if (i + 1 >= argc) { usage(); return 2; }
      journal_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  const std::size_t threads = resolve_threads(cli_threads);
  if (portal_mode + survey_mode + portal_load_mode > 1) {
    std::fprintf(stderr,
                 "--portal, --survey, and --portal-load are mutually "
                 "exclusive\n");
    usage();
    return 2;
  }
  if (portal_load_mode) {
    if (portal_scale <= 0.0) { usage(); return 2; }
    return run_portal_load_mode(static_cast<std::size_t>(load_tenants),
                                load_overload,
                                static_cast<std::size_t>(load_requests),
                                static_cast<std::uint64_t>(load_seed),
                                load_deadline_ms, portal_scale, metrics_out,
                                threads);
  }
  if (portal_mode) {
    return run_portal_mode(cluster, portal_scale, trace_out, metrics_out,
                           journal_path, threads);
  }
  if (survey_mode) {
    return run_survey_mode(static_cast<std::size_t>(survey_target),
                           static_cast<int>(survey_cutout), survey_out,
                           survey_scratch, threads);
  }
  if (!journal_path.empty()) {
    std::fprintf(stderr, "--checkpoint-out/--resume require --portal\n");
    usage();
    return 2;
  }
  if (files.empty() && !demo) {
    usage();
    return 2;
  }

  std::vector<core::GalMorphResult> results;
  std::printf("%-24s %-7s %10s %8s %8s %8s\n", "id", "valid", "SB", "C", "A",
              "r_p(pix)");

  auto report = [&](const core::GalMorphResult& r) {
    if (r.params.valid) {
      std::printf("%-24s %-7s %10.2f %8.2f %8.3f %8.2f\n", r.galaxy_id.c_str(),
                  "yes", r.params.surface_brightness, r.params.concentration,
                  r.params.asymmetry, r.params.petrosian_r);
    } else {
      std::printf("%-24s %-7s  (%s)\n", r.galaxy_id.c_str(), "NO",
                  r.params.failure_reason.c_str());
    }
    results.push_back(r);
  };

  if (demo) {
    report(core::run_gal_morph("DEMO_E", demo_galaxy(sim::MorphType::kElliptical),
                               args));
    report(core::run_gal_morph("DEMO_Sp", demo_galaxy(sim::MorphType::kSpiral),
                               args));
  }
  for (const std::string& path : files) {
    auto fits = image::read_fits_file(path);
    if (!fits.ok()) {
      core::GalMorphResult bad;
      bad.galaxy_id = path;
      bad.params.valid = false;
      bad.params.failure_reason = fits.error().to_string();
      report(bad);
      continue;
    }
    const std::string id =
        fits->header.get_string("OBJECT").value_or(path);
    report(core::run_gal_morph(id, fits.value(), args));
  }

  if (!votable_path.empty()) {
    const votable::Table table = core::concat_results(results, "galmorph_cli");
    const Status s = votable::write_votable_file(votable_path, table);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", votable_path.c_str(),
                   s.error().to_string().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu rows)\n", votable_path.c_str(), results.size());
  }
  return 0;
}
