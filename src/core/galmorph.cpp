#include "core/galmorph.hpp"

#include <cmath>

#include "sky/coords.hpp"

namespace nvo::core {

sky::Cosmology GalMorphArgs::cosmology() const {
  sky::Cosmology c;
  c.h0_km_s_mpc = h0;
  c.omega_m = omega_m;
  c.flat = flat;
  if (!flat) c.omega_l = 1.0 - omega_m;  // prototype convention
  return c;
}

namespace {

/// The job body on a decoded frame: measure, then the physical scale.
GalMorphResult measure_frame(const std::string& galaxy_id, const image::Image& frame,
                             const GalMorphArgs& args, const ParallelFor* tile_executor) {
  GalMorphResult out;
  out.galaxy_id = galaxy_id;
  out.redshift = args.redshift;

  MorphologyOptions options;
  options.pixel_scale_arcsec = args.pix_scale_deg * sky::kArcsecPerDeg;
  options.zero_point = args.zero_point;
  if (frame.width() >= kTileMinDim || frame.height() >= kTileMinDim) {
    options.tile_executor = tile_executor;
  }
  out.params = measure_morphology(frame, options);

  const sky::Cosmology cosmology = args.cosmology();
  out.kpc_per_arcsec =
      args.redshift > 0.0 ? cosmology.kpc_per_arcsec(args.redshift) : 0.0;
  if (out.params.valid) {
    out.petrosian_r_kpc =
        out.params.petrosian_r * options.pixel_scale_arcsec * out.kpc_per_arcsec;
  }
  return out;
}

}  // namespace

GalMorphResult run_gal_morph(const std::string& galaxy_id, const image::FitsFile& fits,
                             const GalMorphArgs& args,
                             const ParallelFor* tile_executor) {
  return measure_frame(galaxy_id, fits.data, args, tile_executor);
}

GalMorphResult run_gal_morph_bytes(const std::string& galaxy_id,
                                   const std::vector<std::uint8_t>& fits_bytes,
                                   const GalMorphArgs& args,
                                   const ParallelFor* tile_executor) {
  // The job never reads the header, so it decodes only the pixels, into a
  // frame this thread keeps across jobs (same-sized cutouts reuse its
  // buffer). No other job can decode into the frame while it is measured,
  // also on the kernel pool: a tiled kernel fans out through
  // grid::parallel_for_shared, whose calling thread drains only its own
  // loop and never starts another job.
  thread_local image::Image frame;
  if (const Status decoded = image::decode_fits_pixels(fits_bytes, frame); !decoded.ok()) {
    GalMorphResult out;
    out.galaxy_id = galaxy_id;
    out.redshift = args.redshift;
    out.params.valid = false;
    out.params.failure_reason = "undecodable FITS: " + decoded.error().message;
    return out;
  }
  return measure_frame(galaxy_id, frame, args, tile_executor);
}

votable::Table morphology_schema(const std::string& table_name) {
  using votable::DataType;
  using votable::Field;
  votable::Table t({
      Field{"id", DataType::kString, "", "meta.id", "galaxy identifier"},
      Field{"valid", DataType::kBool, "", "meta.code.qual",
            "computation completed successfully"},
      Field{"surface_brightness", DataType::kDouble, "mag/arcsec2",
            "phot.mag.sb", "average surface brightness"},
      Field{"concentration", DataType::kDouble, "", "src.morph.param",
            "concentration index C = 5 log10(r80/r20)"},
      Field{"asymmetry", DataType::kDouble, "", "src.morph.param",
            "rotational asymmetry index"},
      Field{"petrosian_r", DataType::kDouble, "pix", "phys.angSize", ""},
      Field{"snr", DataType::kDouble, "", "stat.snr", ""},
      Field{"kpc_per_arcsec", DataType::kDouble, "kpc/arcsec", "", ""},
  });
  t.name = table_name;
  t.description = "galMorph computed morphology parameters";
  return t;
}

votable::Row morphology_row(const GalMorphResult& r, std::size_t num_columns) {
  using votable::Value;
  votable::Row row;
  row.reserve(num_columns);
  row.push_back(Value::of_string(r.galaxy_id));
  row.push_back(Value::of_bool(r.params.valid));
  if (r.params.valid) {
    row.push_back(Value::of_double(r.params.surface_brightness));
    row.push_back(Value::of_double(r.params.concentration));
    row.push_back(Value::of_double(r.params.asymmetry));
    row.push_back(Value::of_double(r.params.petrosian_r));
    row.push_back(Value::of_double(r.params.snr));
    row.push_back(Value::of_double(r.kpc_per_arcsec));
  } else {
    row.resize(num_columns);  // null measurements
  }
  return row;
}

votable::Table concat_results(const std::vector<GalMorphResult>& results,
                              const std::string& table_name) {
  votable::Table t = morphology_schema(table_name);
  t.reserve_rows(results.size());
  for (const GalMorphResult& r : results) {
    (void)t.append_row(morphology_row(r, t.num_columns()));
  }
  return t;
}

}  // namespace nvo::core
