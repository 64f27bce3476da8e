#include "portal/transforms.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace nvo::portal {

std::string image_lfn(const std::string& galaxy_id) { return galaxy_id + ".fit"; }
std::string result_lfn(const std::string& galaxy_id) { return galaxy_id + ".txt"; }
std::string output_votable_lfn(const std::string& cluster_name) {
  return cluster_name + "_morph.vot";
}

namespace {

/// True when `name` spliced into a VDL identifier ("m_<id>",
/// "concatMorph_<cluster>") and a quoted LFN still parses back to itself.
bool spells_in_vdl(const std::string& name) {
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '.';
  });
}

/// Stylesheet 2 in one pass over the catalog: appends the VDL text to `text`
/// when set, and defines every TR and DV of that text in `vdc` when set, in
/// the order a parse of the text would ingest them. Returns the text's byte
/// count either way.
Expected<std::size_t> emit_vdl(const votable::Table& catalog,
                               const std::string& cluster_name,
                               const core::GalMorphArgs& defaults, std::string* text,
                               vds::VirtualDataCatalog* vdc) {
  const auto id_col = catalog.column_index("id");
  if (!id_col) return Error(ErrorCode::kInvalidArgument, "catalog lacks id column");
  const auto z_col = catalog.column_index("redshift");
  std::vector<std::string> ids;
  ids.reserve(catalog.num_rows());
  for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
    const auto id = catalog.row(i)[*id_col].as_string();
    if (!id || id->empty()) {
      return Error(ErrorCode::kInvalidArgument, format("row %zu has no id", i));
    }
    ids.push_back(*id);
  }
  if (ids.empty()) return Error(ErrorCode::kInvalidArgument, "catalog is empty");
  if (vdc) {
    // The text round trip rejected these as parse errors; so does the
    // direct build.
    if (!spells_in_vdl(cluster_name)) {
      return Error(ErrorCode::kParseError,
                   "cluster name '" + cluster_name + "' is not a VDL identifier");
    }
    for (const std::string& id : ids) {
      if (!spells_in_vdl(id)) {
        return Error(ErrorCode::kParseError,
                     "galaxy id '" + id + "' is not a VDL identifier");
      }
    }
  }

  std::size_t bytes = 0;
  const auto put = [&](std::string_view piece) {
    bytes += piece.size();
    if (text) text->append(piece);
  };
  using vds::ActualArg;
  using vds::Direction;

  put("# generated by the galaxy morphology portal for cluster ");
  put(cluster_name);
  put("\n");
  put("TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om, in flat,\n"
      "             in image, out galMorph ) { }\n\n");
  if (vdc) {
    vds::Transformation galmorph{"galMorph", {}};
    for (const char* formal :
         {"redshift", "pixScale", "zeroPoint", "Ho", "om", "flat", "image"}) {
      galmorph.args.push_back({formal, Direction::kIn});
    }
    galmorph.args.push_back({"galMorph", Direction::kOut});
    if (Status s = vdc->define_transformation(std::move(galmorph)); !s.ok()) {
      return s.error();
    }
  }

  // Generated concat transformation: one formal per galaxy.
  std::vector<std::string> formals(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) formals[i] = "r" + std::to_string(i);
  const std::string concat_tr = "concatMorph_" + cluster_name;
  put("TR " + concat_tr + "( ");
  for (const std::string& formal : formals) {
    put("in ");
    put(formal);
    put(", ");
  }
  put("out votable ) { }\n\n");
  if (vdc) {
    vds::Transformation concat{concat_tr, {}};
    concat.args.reserve(formals.size() + 1);
    for (const std::string& formal : formals) {
      concat.args.push_back({formal, Direction::kIn});
    }
    concat.args.push_back({"votable", Direction::kOut});
    if (Status s = vdc->define_transformation(std::move(concat)); !s.ok()) {
      return s.error();
    }
  }

  // The scalar parameters every galaxy shares, formatted once.
  const std::string pix_scale = format("%.16G", defaults.pix_scale_deg);
  const std::string zero_point = format("%.9g", defaults.zero_point);
  const std::string h0 = format("%.9g", defaults.h0);
  const std::string omega_m = format("%.9g", defaults.omega_m);
  const std::string flat = defaults.flat ? "1" : "0";
  const std::string shared = "pixScale=\"" + pix_scale + "\", zeroPoint=\"" + zero_point +
                             "\", Ho=\"" + h0 + "\", om=\"" + omega_m + "\", flat=\"" +
                             flat + "\", ";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string& id = ids[i];
    double redshift = defaults.redshift;
    if (z_col) {
      const auto z = catalog.row(i)[*z_col].as_number();
      if (z) redshift = *z;
    }
    const std::string z = format("%.9g", redshift);
    std::string image = image_lfn(id);
    std::string result = result_lfn(id);
    put("DV m_");
    put(id);
    put("->galMorph( redshift=\"");
    put(z);
    put("\", ");
    put(shared);
    put("image=@{in:\"");
    put(image);
    put("\"}, galMorph=@{out:\"");
    put(result);
    put("\"} );\n");
    if (!vdc) continue;
    vds::Derivation dv{"m_" + id, "galMorph", {}};
    // In formal-name order, so each insertion lands at the end.
    auto& b = dv.bindings;
    b.emplace_hint(b.end(), "Ho", ActualArg{false, h0});
    b.emplace_hint(b.end(), "flat", ActualArg{false, flat});
    b.emplace_hint(b.end(), "galMorph",
                   ActualArg{true, std::move(result), Direction::kOut});
    b.emplace_hint(b.end(), "image", ActualArg{true, std::move(image), Direction::kIn});
    b.emplace_hint(b.end(), "om", ActualArg{false, omega_m});
    b.emplace_hint(b.end(), "pixScale", ActualArg{false, pix_scale});
    b.emplace_hint(b.end(), "redshift", ActualArg{false, z});
    b.emplace_hint(b.end(), "zeroPoint", ActualArg{false, zero_point});
    if (Status s = vdc->define_derivation(std::move(dv)); !s.ok()) return s.error();
  }

  const std::string out_lfn = output_votable_lfn(cluster_name);
  put("\nDV concat_" + cluster_name + "->" + concat_tr + "( ");
  vds::Derivation concat{"concat_" + cluster_name, concat_tr, {}};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::string result = result_lfn(ids[i]);
    put(formals[i]);
    put("=@{in:\"");
    put(result);
    put("\"}, ");
    if (vdc) {
      concat.bindings.emplace(std::move(formals[i]),
                              ActualArg{true, std::move(result), Direction::kIn});
    }
  }
  put("votable=@{out:\"" + out_lfn + "\"} );\n");
  if (vdc) {
    concat.bindings.emplace("votable", ActualArg{true, out_lfn, Direction::kOut});
    if (Status s = vdc->define_derivation(std::move(concat)); !s.ok()) return s.error();
  }
  return bytes;
}

}  // namespace

Expected<std::string> catalog_to_vdl(const votable::Table& catalog,
                                     const std::string& cluster_name,
                                     const core::GalMorphArgs& defaults) {
  std::string vdl;
  auto bytes = emit_vdl(catalog, cluster_name, defaults, &vdl, nullptr);
  if (!bytes.ok()) return bytes.error();
  return vdl;
}

Expected<std::size_t> define_catalog_derivations(const votable::Table& catalog,
                                                 const std::string& cluster_name,
                                                 const core::GalMorphArgs& defaults,
                                                 vds::VirtualDataCatalog& vdc) {
  return emit_vdl(catalog, cluster_name, defaults, nullptr, &vdc);
}

}  // namespace nvo::portal
