// The document transforms of §4.3: "we used two stylesheets to process the
// input VOTable: the first simply created a URL list for loading the images
// into the RLS, and a second stylesheet converted the catalog directly into
// a derivation file containing the Virtual Data Language markup". XSLT is
// replaced by typed transforms over the parsed table. The compute service
// reads the `cutout_url` column itself when it stages images, which is the
// first stylesheet's role; catalog_to_vdl is the second, and
// define_catalog_derivations builds the same derivations without the text.
#pragma once

#include <string>

#include "common/expected.hpp"
#include "core/galmorph.hpp"
#include "vds/chimera.hpp"
#include "votable/table.hpp"

namespace nvo::portal {

/// Logical file names used by the galMorph workflow for one galaxy.
std::string image_lfn(const std::string& galaxy_id);
std::string result_lfn(const std::string& galaxy_id);
/// The cluster's output VOTable logical name ("the computed VOTable is
/// logically named after the galaxy cluster", §4.3).
std::string output_votable_lfn(const std::string& cluster_name);

/// Stylesheet 2: catalog -> VDL derivation file. Emits
///   * TR galMorph(...) — once,
///   * TR concatMorph_<cluster>(...) — generated with one `in` formal per
///     galaxy result plus the `out` VOTable (VDL has no varargs),
///   * DV m_<id>->galMorph(...) per galaxy, with per-galaxy redshift taken
///     from the catalog's `redshift` column (fallback: args.redshift),
///   * DV concat_<cluster>->concatMorph_<cluster>(...).
/// The request that materializes the whole analysis is then simply the
/// output VOTable lfn.
Expected<std::string> catalog_to_vdl(const votable::Table& catalog,
                                     const std::string& cluster_name,
                                     const core::GalMorphArgs& defaults);

/// Stylesheet 2 without the text round trip: defines the TRs and DVs that
/// catalog_to_vdl prints straight into `vdc`, in the order parsing that
/// text would ingest them, and returns the text's byte count. A galaxy id
/// or cluster name the printed VDL cannot spell (any character outside
/// [A-Za-z0-9_.]) is a parse error, as it is for the printed text.
Expected<std::size_t> define_catalog_derivations(const votable::Table& catalog,
                                                 const std::string& cluster_name,
                                                 const core::GalMorphArgs& defaults,
                                                 vds::VirtualDataCatalog& vdc);

}  // namespace nvo::portal
