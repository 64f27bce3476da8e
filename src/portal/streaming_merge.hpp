// Incremental catalog merge for the compute service's dataflow executor:
// finished galaxies are absorbed into the output VOTable while others are
// still staging or computing, instead of one batch concat after a barrier.
//
// A catalog row is emittable only when BOTH halves of its story are final:
// the real kernel result exists (the morphology numbers), and the simulated
// grid node reached a final outcome (a failed node overrides the row to
// invalid — a job that never ran produces no product, however well the
// kernel did). Kernel completions arrive from pool threads in whatever
// order the pool finishes them; node outcomes arrive from the DAGMan event
// loop on the caller thread. The writer holds a reorder buffer and emits
// rows strictly in input (galaxy) order through votable::VotableXmlStream,
// which is a byte-identical decomposition of to_votable_xml — so the
// streamed catalog equals to_votable_xml(concat_results(...)) over the
// overridden rows bit-for-bit, for every completion order.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "core/galmorph.hpp"
#include "votable/table.hpp"
#include "votable/votable_io.hpp"

namespace nvo::portal {

class StreamingCatalogWriter {
 public:
  /// `results` is the per-galaxy slot array the kernels fill; it must
  /// outlive the writer. Slot i may only be read after mark_kernel_done(i).
  StreamingCatalogWriter(const std::string& table_name,
                         std::vector<core::GalMorphResult>& results);

  /// Pool-thread side: results[index] is fully written and will not change.
  /// Thread-safe against concurrent marks on other indices and against
  /// mark_node_final on any index.
  void mark_kernel_done(std::size_t index);

  /// Caller-thread side: the simulated node outcome for this galaxy is
  /// final. `grid_failed` overrides the row to invalid ("grid job failed")
  /// at emission time. Idempotent: later marks for an already-final index
  /// are ignored, so a blanket end-of-run sweep is safe.
  void mark_node_final(std::size_t index, bool grid_failed);

  /// True once mark_node_final(index, ...) has been recorded.
  bool node_finalized(std::size_t index) const;

  /// Rows serialized into the document so far (emitted in input order).
  std::size_t rows_emitted() const;

  /// Closes the document and returns the full VOTable bytes. Every row must
  /// have been finalized (kernel + node) first.
  std::string finish();

 private:
  /// Emits every row whose turn has come and whose halves are both final.
  /// Caller holds mu_.
  void flush_ready_locked();

  mutable std::mutex mu_;
  votable::Table schema_;
  votable::VotableXmlStream stream_;
  std::string xml_;
  std::vector<core::GalMorphResult>* results_;
  std::vector<unsigned char> kernel_done_;
  std::vector<unsigned char> node_final_;
  std::vector<unsigned char> grid_failed_;
  std::size_t next_ = 0;  ///< first row not yet emitted
};

}  // namespace nvo::portal
