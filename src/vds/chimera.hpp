// Chimera: the Virtual Data Catalog plus the abstract-workflow composer.
// "When a user or application requests a particular logical file name,
// Chimera composes an abstract workflow based on the previously defined
// derivations (if that composition is possible)" (§3.2). The abstract
// workflow names only logical files and logical transformations; resource
// binding is Pegasus's job.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "vds/dag.hpp"
#include "vds/vdl.hpp"
#include "vds/vdl_parser.hpp"

namespace nvo::vds {

/// The Virtual Data Catalog: registered transformations and derivations,
/// indexed by the logical files the derivations produce.
class VirtualDataCatalog {
 public:
  /// Registers a transformation template; names are unique.
  Status define_transformation(Transformation tr);

  /// Registers a derivation. Validation: the referenced transformation must
  /// exist, every binding must name one of its formal arguments, every
  /// formal argument must be bound, file-binding directions must match the
  /// formal declaration, and no other derivation may already produce any of
  /// its output files (single-producer rule). Formals are resolved by binary
  /// search, so a derivation with n bindings costs O(n log n).
  Status define_derivation(Derivation dv);

  /// Ingests a whole parsed VDL document.
  Status ingest(const VdlDocument& doc);

  const Transformation* transformation(const std::string& name) const;
  const Derivation* derivation(const std::string& name) const;

  /// The derivation producing a logical file, or nullptr if the file is raw
  /// input (exists only in storage, not derivable).
  const Derivation* producer(const std::string& logical_file) const;

  std::size_t num_transformations() const { return transformations_.size(); }
  std::size_t num_derivations() const { return derivations_.size(); }

 private:
  struct TransformationEntry {
    Transformation tr;
    /// Indices into tr.args, sorted by formal name.
    std::vector<std::size_t> by_name;
  };
  /// The formal of `entry` named `name`, or nullptr.
  static const FormalArg* find_formal(const TransformationEntry& entry,
                                      const std::string& name);

  std::map<std::string, TransformationEntry> transformations_;
  std::unordered_map<std::string, Derivation> derivations_;
  /// lfn -> its producer in derivations_ (whose elements never move).
  std::unordered_map<std::string, const Derivation*> producer_of_;
};

/// Composes the abstract workflow that materializes the requested logical
/// files: the transitive closure of producing derivations, with an edge
/// d1 -> d2 whenever an output of d1 is an input of d2 (paper Fig. 1).
/// Files with no producer are treated as raw inputs — they become
/// requirements on the workflow's root nodes, checked later by Pegasus's
/// feasibility pass. Requesting a file that has no producer is an error.
Expected<Dag> compose_abstract_workflow(const VirtualDataCatalog& catalog,
                                        const std::vector<std::string>& requests);

/// All raw-input logical files of an abstract workflow: inputs consumed by
/// some node but produced by none.
std::vector<std::string> raw_inputs(const Dag& dag);

}  // namespace nvo::vds
