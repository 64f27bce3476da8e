// Steady-state heap allocations of the galMorph job on FITS bytes. The job
// decodes into a frame its thread keeps and measures in the thread's kernel
// workspace, so once the first cutout has sized both, a job on a same-sized
// cutout allocates only what its result owns: the galaxy id, when it is too
// long for the small-string buffer. Counted with the benches' replaceable
// global operator new (bench/alloc_counter.cpp), linked into this test only.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/galmorph.hpp"
#include "image/fits.hpp"
#include "sim/cluster.hpp"
#include "sim/survey.hpp"
#include "sim/universe.hpp"

namespace nvo::core {
namespace {

struct Cutout {
  std::string id;
  double redshift = 0.0;
  std::vector<std::uint8_t> fits;
};

/// The first 40 cutouts of one survey cluster, none corrupted, serialized
/// as the archives serve them.
std::vector<Cutout> survey_cutouts(int size) {
  const auto specs = sim::survey_cluster_specs({7, 2000});
  const sim::Cluster cluster = sim::generate_cluster(specs.front(), GalMorphArgs{}.cosmology());
  sim::RenderOptions render;
  render.supersample = 1;
  std::vector<Cutout> out;
  for (const sim::GalaxyTruth& g : cluster.galaxies) {
    if (out.size() == 40) break;
    out.push_back({g.id, g.redshift,
                   image::write_fits(
                       sim::synthesize_galaxy_cutout(cluster, g, size, render, 7, 0.0))});
  }
  return out;
}

/// Heap allocations of one run_gal_morph_bytes call, the result assigned
/// into a live GalMorphResult as a caller's result slot is.
std::uint64_t job_allocations(const std::string& id, const Cutout& c, GalMorphResult& r) {
  GalMorphArgs args;
  args.redshift = c.redshift;
  const std::uint64_t before = bench::heap_allocs();
  r = run_gal_morph_bytes(id, c.fits, args);
  return bench::heap_allocs() - before;
}

TEST(KernelAllocations, SteadyStateJobAllocatesOnlyItsId) {
  for (const int size : {64, 128}) {
    const std::vector<Cutout> batch = survey_cutouts(size);
    ASSERT_EQ(batch.size(), 40u);
    GalMorphResult r;
    (void)job_allocations(batch.front().id, batch.front(), r);  // sizes this thread's frame
    std::size_t valid = 0;
    for (const Cutout& c : batch) {
      // An id that fits the small-string buffer costs nothing; a longer one
      // costs its copy into the result, and nothing else may allocate.
      ASSERT_LE(c.id.size(), 15u);
      const std::uint64_t short_id = job_allocations(c.id, c, r);
      if (!r.params.valid) continue;  // a failure reason may own a string
      ++valid;
      const std::string long_id = "SURVEY-FIELD-" + c.id;
      const std::uint64_t long_id_allocs = job_allocations(long_id, c, r);
      EXPECT_EQ(short_id, 0u) << size << " px " << c.id;
      EXPECT_LE(long_id_allocs, 1u) << size << " px " << c.id;
    }
    EXPECT_GT(valid, batch.size() * 9 / 10) << size << " px";
  }
}

}  // namespace
}  // namespace nvo::core
