// The repository benchmark program. One workload per invocation:
//
//   perfbench --workload <survey_stream|campaign_cold|portal_overload>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics of the layers the workload reaches. Both print
// provenance and a human-readable table first, and end with one JSON line
// {"correct", "attempted", "failed", "metrics"}. The exit status is non-zero
// when any output or harness-isolation check failed. run.py holds the
// metric set to BENCHMARK.json, the one list of names and units.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {
/// HEAD of the source tree, stamped into git_sha.cpp at every build.
extern const char kGitSha[];
}  // namespace perfbench

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

#ifndef PERFBENCH_SIMD
#define PERFBENCH_SIMD "baseline"
#endif

const std::map<std::string, Result (*)(const Options&)> kWorkloads = {
    {"survey_stream", &perfbench::run_survey_stream},
    {"campaign_cold", &perfbench::run_campaign_cold},
    {"portal_overload", &perfbench::run_portal_overload},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<survey_stream|campaign_cold|portal_overload> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (kWorkloads.count(value) == 0) usage(("unknown workload " + value).c_str());
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed must be an integer");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else {
      usage(("unknown option " + key).c_str());
    }
    seen.insert(key);
  }
  if (seen.size() != 4) usage("all four options are required");
  return o;
}

int simd_width_bits() {
#if defined(__AVX512F__)
  return 512;
#elif defined(__AVX2__) || defined(__AVX__)
  return 256;
#elif defined(__SSE2__) || defined(__ARM_NEON)
  return 128;
#else
  return 0;
#endif
}

void print_provenance(const Options& o) {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"build_type\": \"%s\", \"nproc\": %ld, "
      "\"kernel_pool_threads\": %zu, \"main_threads\": 1, \"setup_threads\": %zu, "
      "\"simd_isa\": \"%s\", \"simd_width_bits\": %d, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %.17g, \"trace\": %d}\n",
      perfbench::kGitSha, build_type, sysconf(_SC_NPROCESSORS_ONLN),
      perfbench::kKernelThreads, perfbench::setup_threads(), PERFBENCH_SIMD,
      simd_width_bits(), o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
}

void print_row(const Metric& m, const char* kind) {
  std::printf("  %-30s %18.6f %-6s clock=%-4s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), perfbench::to_string(m.clock), kind);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  print_provenance(options);
  std::fflush(stdout);

  Result result = kWorkloads.at(options.workload)(options);

  std::vector<Metric>& out = result.metrics;
  std::set<std::string> names;
  for (Metric& m : out) {
    result.check(names.insert(m.name).second, "metric " + m.name + " reported twice");
    result.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }

  std::printf("%s %s seed=%llu\n", options.workload.c_str(),
              options.trace ? "per-layer (traced)" : "end-to-end",
              static_cast<unsigned long long>(options.seed));
  for (const Metric& m : out) print_row(m, "");
  for (const Metric& m : result.info) print_row(m, "(info)");
  for (const std::string& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
