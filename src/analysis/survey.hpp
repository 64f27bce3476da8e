// Survey-scale morphology sweep: 10^5..10^6 galaxies through the SoA
// kernel with bounded memory. Where the §5 campaign routes every cutout
// through the full grid data plane (federation queries, replica staging,
// Pegasus planning, simulated DAGMan), the survey path is the throughput
// lane: clusters are realized lazily from their specs, cutouts are
// synthesized cache-less and measured once, per-cluster results spill to
// id-sorted runs, and a k-way streaming merge serializes the catalog
// row-by-row — peak RSS stays flat in the survey size.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "core/galmorph.hpp"
#include "sim/galaxy.hpp"
#include "votable/table.hpp"

namespace nvo::analysis {

struct SurveyConfig {
  std::uint64_t seed = 20031115;
  std::size_t target_galaxies = 100000;
  /// Workers in the survey's private kernel pool. The calling thread
  /// claims galaxies alongside them at each per-cluster barrier, so n > 1
  /// runs the kernel on n + 1 threads; 1 means the caller only, no pool.
  std::size_t compute_threads = 1;
  int cutout_size = 64;
  double corruption_rate = 0.04;
  core::GalMorphArgs args;        ///< cosmology/photometry defaults
  /// Cutout synthesis options. Survey-grade sampling by default: the §5
  /// pointed-observation default integrates every pixel on a 3x3 sub-grid,
  /// which is the right fidelity for 1525 cutouts and pure overhead for
  /// 10^6 — drive-scan pixels are single samples. Center-pixel sampling
  /// changes only the synthetic inputs (both survey paths see identical
  /// frames); the kernel and the campaign lane are untouched.
  sim::RenderOptions render = [] {
    sim::RenderOptions r;
    r.supersample = 1;
    return r;
  }();
  /// Maximum spill runs merged in one pass; deeper run sets are merged
  /// hierarchically into intermediate runs first.
  std::size_t merge_fan_in = 64;
  /// Directory for sorted spill runs; empty keeps runs as in-memory
  /// strings (tests and small footprints).
  std::string scratch_dir;
  /// Output catalog path; empty collects the catalog XML in the report
  /// instead (byte-identity tests compare that string).
  std::string catalog_path;
  std::string table_name = "SURVEY_MORPH";
};

struct SurveyReport {
  std::size_t clusters = 0;
  std::size_t galaxies = 0;
  std::size_t valid = 0;
  std::size_t invalid = 0;
  std::size_t spill_runs = 0;      ///< first-level runs written
  std::size_t spill_bytes = 0;     ///< encoded bytes spilled (all levels)
  double compute_seconds = 0.0;    ///< synthesis + kernel + run encoding
  double merge_seconds = 0.0;      ///< k-way merge + catalog serialization
  /// /proc/self/status readings (kB; zero on platforms without procfs).
  std::size_t vm_rss_start_kb = 0;
  std::size_t vm_rss_end_kb = 0;
  std::size_t vm_hwm_kb = 0;       ///< process high-water mark after the run
  std::string catalog_xml;         ///< set when catalog_path is empty
  std::string catalog_path;        ///< echo of the config (when file-backed)
};

/// Current VmRSS / VmHWM of this process in kB (0 when unavailable).
/// Exposed for the survey bench's flat-memory gate.
std::size_t process_vm_rss_kb();
std::size_t process_vm_hwm_kb();

class Survey {
 public:
  explicit Survey(SurveyConfig config) : config_(std::move(config)) {}

  const SurveyConfig& config() const { return config_; }

  /// The streaming path: bounded-memory spill + k-way merge. Fails only on
  /// I/O errors (unwritable scratch/catalog paths); bad cutouts become
  /// valid=false rows, never errors.
  Expected<SurveyReport> run();

  /// Reference path: identical measurements materialized in one vector,
  /// sorted by id, and serialized through concat_results/to_votable_xml.
  /// The byte-identity oracle for run() — and the unbounded-memory
  /// baseline its flat RSS is measured against.
  Expected<SurveyReport> run_in_memory();

 private:
  SurveyConfig config_;
};

namespace detail {

/// Spill-run codec and in-memory k-way merge, exposed so the survey bench
/// can pin the merge inner loop's allocation count to zero with heap
/// counters. encode appends one record line ("<id> 1 <6x hex64>\n" or
/// "<id> 0\n"); decode fills a reusable 8-cell concat_results-shaped row,
/// recycling the id cell's string storage.
void encode_run_line(const core::GalMorphResult& r, std::string& out);
bool decode_run_line(const std::string& line, votable::Row& row);

/// Merges id-sorted encoded runs (each one whole in-memory run), invoking
/// `sink` with each record line in ascending id order. Steady-state cost
/// per record: one heap comparison + the sink — no allocations beyond the
/// per-call source/heap setup.
Status merge_encoded_runs(const std::vector<const std::string*>& runs,
                          const std::function<void(const std::string&)>& sink);

}  // namespace detail

}  // namespace nvo::analysis
