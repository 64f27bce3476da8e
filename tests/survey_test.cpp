// Survey subsystem guards: deterministic footprints, and — the load-bearing
// one — byte identity between the streaming spill/k-way-merge catalog and
// the in-memory sort + concat_results + to_votable_xml reference path. The
// spill codec carries IEEE-754 bit patterns, so the streamed catalog must
// reproduce the reference XML exactly, byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/survey.hpp"
#include "sim/survey.hpp"

namespace nvo::analysis {
namespace {

/// Scale knob for the big byte-identity run: defaults to the issue's 10^5
/// galaxies; sanitizer lanes dial it down via NVO_SURVEY_TEST_TARGET.
std::size_t big_target() {
  if (const char* env = std::getenv("NVO_SURVEY_TEST_TARGET")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 100000;
}

SurveyConfig small_config() {
  SurveyConfig cfg;
  cfg.target_galaxies = 3000;
  cfg.cutout_size = 16;  // keeps synthesis cheap; codec/merge behave the same
  return cfg;
}

TEST(Survey, ClusterSpecsAreDeterministic) {
  const sim::SurveySpec spec{1234, 50000};
  const auto a = sim::survey_cluster_specs(spec);
  const auto b = sim::survey_cluster_specs(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 333u);  // 50000 / 150 (field-weighted mean group)
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].n_galaxies, b[i].n_galaxies);
    EXPECT_EQ(a[i].redshift, b[i].redshift);
    total += static_cast<std::size_t>(a[i].n_galaxies);
  }
  // Realized population tracks the target (factor distribution has unit mean).
  EXPECT_GT(total, spec.target_galaxies / 2);
  EXPECT_LT(total, spec.target_galaxies * 2);
  // A different seed reshuffles the footprint.
  const auto c = sim::survey_cluster_specs({4321, 50000});
  EXPECT_NE(a[0].seed, c[0].seed);
}

TEST(Survey, StreamingCatalogIsByteIdenticalToInMemory) {
  SurveyConfig cfg = small_config();
  cfg.merge_fan_in = 3;  // force a hierarchical (two-level) merge
  Survey survey(cfg);
  const auto streamed = survey.run();
  ASSERT_TRUE(streamed.ok()) << streamed.error().to_string();
  const auto reference = survey.run_in_memory();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();

  EXPECT_EQ(streamed->galaxies, reference->galaxies);
  EXPECT_EQ(streamed->valid, reference->valid);
  EXPECT_EQ(streamed->invalid, reference->invalid);
  EXPECT_GT(streamed->invalid, 0u) << "corruption should produce null rows";
  ASSERT_EQ(streamed->catalog_xml, reference->catalog_xml);
}

TEST(Survey, FileBackedSpillAndCatalogMatchInMemoryRuns) {
  const std::string scratch = ::testing::TempDir() + "survey_spill";
  const std::string catalog = scratch + "/catalog.vot";
  std::filesystem::create_directories(scratch);
  std::remove(catalog.c_str());

  SurveyConfig cfg = small_config();
  Survey in_memory(cfg);
  const auto want = in_memory.run();
  ASSERT_TRUE(want.ok()) << want.error().to_string();

  cfg.scratch_dir = scratch;
  cfg.catalog_path = catalog;
  Survey file_backed(cfg);
  const auto got = file_backed.run();
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_TRUE(got->catalog_xml.empty()) << "file-backed run streams to disk";

  std::ifstream f(catalog, std::ios::binary);
  ASSERT_TRUE(f) << "catalog file missing";
  std::ostringstream read_back;
  read_back << f.rdbuf();
  EXPECT_EQ(read_back.str(), want->catalog_xml);
}

TEST(Survey, ThreadedComputeMatchesSerial) {
  SurveyConfig cfg = small_config();
  Survey serial(cfg);
  const auto want = serial.run();
  ASSERT_TRUE(want.ok()) << want.error().to_string();

  cfg.compute_threads = 3;
  Survey threaded(cfg);
  const auto got = threaded.run();
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got->catalog_xml, want->catalog_xml);
}

TEST(Survey, InMemoryCatalogIsByteIdenticalAcrossThreadCounts) {
  // Each kernel thread keeps its own workspace across galaxies; none of it
  // may leak from one galaxy into the next, whatever thread measures it.
  SurveyConfig cfg = small_config();
  std::string want;
  for (const std::size_t threads : {1, 2, 4}) {
    cfg.compute_threads = threads;
    const auto got = Survey(cfg).run_in_memory();
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    if (threads == 1) {
      want = got->catalog_xml;
      ASSERT_FALSE(want.empty());
    } else {
      EXPECT_EQ(got->catalog_xml, want) << threads << " threads";
    }
  }
}

TEST(Survey, StreamingByteIdentityAtSurveyScale) {
  SurveyConfig cfg;
  cfg.target_galaxies = big_target();
  cfg.cutout_size = 16;
  Survey survey(cfg);
  const auto streamed = survey.run();
  ASSERT_TRUE(streamed.ok()) << streamed.error().to_string();
  const auto reference = survey.run_in_memory();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();
  EXPECT_EQ(streamed->clusters, reference->clusters);
  EXPECT_EQ(streamed->galaxies, reference->galaxies);
  ASSERT_EQ(streamed->catalog_xml, reference->catalog_xml);
}

}  // namespace
}  // namespace nvo::analysis
