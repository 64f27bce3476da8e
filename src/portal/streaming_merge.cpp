#include "portal/streaming_merge.hpp"

namespace nvo::portal {

StreamingCatalogWriter::StreamingCatalogWriter(
    const std::string& table_name, std::vector<core::GalMorphResult>& results)
    : schema_(core::morphology_schema(table_name)),
      results_(&results),
      kernel_done_(results.size(), 0),
      node_final_(results.size(), 0),
      grid_failed_(results.size(), 0) {
  stream_.begin(schema_, xml_);
}

void StreamingCatalogWriter::mark_kernel_done(std::size_t index) {
  std::lock_guard lock(mu_);
  kernel_done_[index] = 1;
  flush_ready_locked();
}

void StreamingCatalogWriter::mark_node_final(std::size_t index, bool grid_failed) {
  std::lock_guard lock(mu_);
  if (node_final_[index]) return;
  node_final_[index] = 1;
  grid_failed_[index] = grid_failed ? 1 : 0;
  flush_ready_locked();
}

bool StreamingCatalogWriter::node_finalized(std::size_t index) const {
  std::lock_guard lock(mu_);
  return node_final_[index] != 0;
}

std::size_t StreamingCatalogWriter::rows_emitted() const {
  std::lock_guard lock(mu_);
  return next_;
}

std::string StreamingCatalogWriter::finish() {
  std::lock_guard lock(mu_);
  flush_ready_locked();
  stream_.end(xml_);
  return std::move(xml_);
}

void StreamingCatalogWriter::flush_ready_locked() {
  while (next_ < kernel_done_.size() && kernel_done_[next_] &&
         node_final_[next_]) {
    core::GalMorphResult& r = (*results_)[next_];
    if (grid_failed_[next_]) {
      // A grid-level failure voids the product even if the kernel ran.
      r.params.valid = false;
      r.params.failure_reason = "grid job failed";
    }
    stream_.row(core::morphology_row(r, schema_.num_columns()), xml_);
    ++next_;
  }
}

}  // namespace nvo::portal
