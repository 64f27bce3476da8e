// The galMorph transformation: the executable body behind the paper's VDL
// template
//
//   TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om,
//                in flat, in image, out galMorph ) { ... }
//
// It consumes one galaxy cutout (FITS) plus the scalar parameters, measures
// the three morphology parameters and derives the physical scale from the
// cosmology; the result carries the §4.3.1 validity flag. concat_results is
// the final concatenation step that merges per-galaxy products into the
// output VOTable.
#pragma once

#include <string>
#include <vector>

#include "core/morphology.hpp"
#include "image/fits.hpp"
#include "sky/cosmology.hpp"
#include "votable/table.hpp"

namespace nvo::core {

/// Scalar arguments of the galMorph transformation, exactly the VDL set.
struct GalMorphArgs {
  double redshift = 0.0;
  double pix_scale_deg = 2.831933107035062e-4;  ///< pixScale (deg/pixel)
  double zero_point = 0.0;                      ///< zeroPoint
  double h0 = 100.0;                            ///< Ho
  double omega_m = 0.3;                         ///< om
  bool flat = true;                             ///< flat

  sky::Cosmology cosmology() const;
};

/// One galaxy's computed product.
struct GalMorphResult {
  std::string galaxy_id;
  MorphologyParams params;       ///< includes the validity flag
  double redshift = 0.0;
  double kpc_per_arcsec = 0.0;   ///< physical scale from the cosmology
  double petrosian_r_kpc = 0.0;  ///< physical size of the aperture radius
};

/// Cutouts at or above this edge length fan the kernel's tiled stages out
/// across the supplied executor; smaller frames always run serially (the
/// fan-out bookkeeping costs more than it buys on survey-typical 64px
/// cutouts). Either way the results are identical to the serial path.
inline constexpr int kTileMinDim = 128;

/// Runs the transformation on an in-memory FITS cutout. `tile_executor`
/// (optional) parallelizes the kernel's tiled stages for cutouts of at
/// least kTileMinDim pixels on a side; it must be safe to invoke from the
/// calling thread (see grid::parallel_for_shared for the pool-reentrant
/// form).
GalMorphResult run_gal_morph(const std::string& galaxy_id, const image::FitsFile& fits,
                             const GalMorphArgs& args,
                             const ParallelFor* tile_executor = nullptr);

/// Same, from serialized FITS bytes (the form jobs receive from storage);
/// undecodable images produce an invalid result, not an error — the paper's
/// fault-tolerance choice.
GalMorphResult run_gal_morph_bytes(const std::string& galaxy_id,
                                   const std::vector<std::uint8_t>& fits_bytes,
                                   const GalMorphArgs& args,
                                   const ParallelFor* tile_executor = nullptr);

/// The morphology catalog's schema (fields, name, description) with no
/// rows: the prologue a streaming serializer needs before any galaxy has
/// finished. concat_results builds on exactly this table, so batch and
/// incremental paths share one definition byte-for-byte.
votable::Table morphology_schema(const std::string& table_name);

/// One catalog row for a result, in morphology_schema column order.
/// Invalid galaxies carry null measurements ("this prevented a few
/// failures from taking down the entire experiment").
votable::Row morphology_row(const GalMorphResult& result,
                            std::size_t num_columns);

/// The final concatenation: merges per-galaxy products into the output
/// VOTable. Invalid galaxies appear with valid=false and null measurements
/// ("this prevented a few failures from taking down the entire
/// experiment").
votable::Table concat_results(const std::vector<GalMorphResult>& results,
                              const std::string& table_name);

}  // namespace nvo::core
