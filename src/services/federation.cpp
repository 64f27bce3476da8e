#include "services/federation.hpp"

#include <algorithm>
#include <cmath>

#include <memory>

#include "common/strings.hpp"
#include "services/cone_search.hpp"
#include "services/sia.hpp"
#include "sky/spatial_index.hpp"
#include "votable/table_ops.hpp"

namespace nvo::services {

namespace {

/// All-cluster concatenation of a per-cluster catalog, built ONCE at
/// federation registration and shared (immutably) by the cone handlers —
/// the old per-request supplier re-derived and re-stacked every cluster's
/// table on every query.
std::shared_ptr<const votable::Table> combined_catalog(
    const sim::Universe& universe,
    votable::Table (sim::Universe::*catalog)(const sim::Cluster&) const) {
  std::vector<votable::Table> parts;
  parts.reserve(universe.clusters().size());
  for (const sim::Cluster& c : universe.clusters()) {
    parts.push_back((universe.*catalog)(c));
  }
  auto stacked = votable::vstack_all(std::move(parts));
  votable::Table out = stacked.ok() ? std::move(stacked.value()) : votable::Table();
  out.name = "ALL_CLUSTERS";
  return std::make_shared<const votable::Table>(std::move(out));
}

/// All-sky index over every galaxy of the universe: the id returned by a
/// spatial query maps back to (cluster, galaxy). Built once at federation
/// registration and shared by the positional handlers — the survey-scale
/// access structure a production archive needs (cf. the NVO's HTM).
struct GalaxyIndex {
  struct Ref {
    const sim::Cluster* cluster;
    const sim::GalaxyTruth* galaxy;
  };
  std::vector<Ref> refs;
  std::unique_ptr<sky::SpatialIndex> index;

  explicit GalaxyIndex(const sim::Universe& universe) {
    std::vector<sky::Equatorial> positions;
    for (const sim::Cluster& c : universe.clusters()) {
      for (const sim::GalaxyTruth& g : c.galaxies) {
        refs.push_back({&c, &g});
        positions.push_back(g.position);
      }
    }
    index = std::make_unique<sky::SpatialIndex>(std::move(positions), 720);
  }
};

/// Finds the (cluster, galaxy) nearest a position, within `tol_deg`.
struct GalaxyHit {
  const sim::Cluster* cluster = nullptr;
  const sim::GalaxyTruth* galaxy = nullptr;
};
GalaxyHit nearest_galaxy(const GalaxyIndex& gi, const sky::Equatorial& pos,
                         double tol_deg) {
  GalaxyHit best;
  const std::size_t id = gi.index->nearest(pos, tol_deg);
  if (id != sky::SpatialIndex::npos) {
    best.cluster = gi.refs[id].cluster;
    best.galaxy = gi.refs[id].galaxy;
  }
  return best;
}

/// SIA finder over per-cluster field images.
SiaFinder make_field_finder(const sim::Universe& universe, const std::string& title,
                            const std::string& image_base, int image_pix,
                            double pixel_scale_arcsec) {
  return [&universe, title, image_base, image_pix,
          pixel_scale_arcsec](const sky::Equatorial& pos, double size_deg) {
    std::vector<SiaRecord> out;
    const double field_deg = image_pix * pixel_scale_arcsec / sky::kArcsecPerDeg;
    for (const sim::Cluster& c : universe.clusters()) {
      const double sep = sky::angular_separation_deg(c.center(), pos);
      if (sep > size_deg / 2.0 + field_deg / 2.0) continue;
      SiaRecord r;
      r.title = title + " " + c.name();
      r.center = c.center();
      r.size_deg = field_deg;
      r.access_url = format("%s?CLUSTER=%s", image_base.c_str(), c.name().c_str());
      r.estimated_bytes =
          static_cast<std::size_t>(image_pix) * image_pix * 4 + 2880 * 2;
      out.push_back(std::move(r));
    }
    return out;
  };
}

/// The stored 512 px optical field of the cluster named by CLUSTER=.
StoredImageProducer optical_field(const sim::Universe* u) {
  return [u](const Url& url) -> Expected<std::shared_ptr<const sim::EncodedFrame>> {
    const auto name = url.param("CLUSTER");
    if (!name) return Error(ErrorCode::kInvalidArgument, "no CLUSTER");
    const sim::Cluster* c = u->find_cluster(*name);
    if (!c) return Error(ErrorCode::kNotFound, "cluster " + *name);
    return u->optical_field_fits(*c, 512, 2.0);
  };
}

}  // namespace

const std::vector<std::string>& Federation::archive_hosts() {
  static const std::vector<std::string> hosts = {
      kChandraHost, kHeasarcHost, kIpacHost, kCadcHost, kMastHost};
  return hosts;
}

Federation register_federation(HttpFabric& fabric, const sim::Universe& universe,
                               const FederationOptions& options) {
  Federation fed;
  const sim::Universe* u = &universe;
  // Shared by the positional handlers below (captured by value in their
  // closures, so it outlives this function).
  auto galaxy_index = std::make_shared<const GalaxyIndex>(universe);

  // ---- Chandra Data Archive: high-resolution X-ray SIA ----
  {
    const std::string host = Federation::kChandraHost;
    const std::string image_base = "http://" + host + "/cda/image";
    fabric.route(host, "/cda/sia",
                 make_sia_query_handler(
                     make_field_finder(universe, "Chandra ACIS", image_base, 256, 2.0)),
                 EndpointModel{70.0, 6.0, 0.0, true});
    fabric.route(host, "/cda/image",
                 make_image_handler([u](const Url& url) -> Expected<image::FitsFile> {
                   const auto name = url.param("CLUSTER");
                   if (!name) return Error(ErrorCode::kInvalidArgument, "no CLUSTER");
                   const sim::Cluster* c = u->find_cluster(*name);
                   if (!c) return Error(ErrorCode::kNotFound, "cluster " + *name);
                   return u->xray_field(*c, 256, 2.0);
                 }),
                 EndpointModel{70.0, 6.0, 0.0, true});
    fed.chandra_sia = "http://" + host + "/cda/sia";
  }

  // ---- HEASARC: ROSAT all-sky X-ray SIA (coarser sampling) ----
  {
    const std::string host = Federation::kHeasarcHost;
    const std::string image_base = "http://" + host + "/rosat/image";
    fabric.route(host, "/rosat/sia",
                 make_sia_query_handler(
                     make_field_finder(universe, "ROSAT PSPC", image_base, 128, 8.0)),
                 EndpointModel{60.0, 10.0, 0.0, true});
    fabric.route(host, "/rosat/image",
                 make_image_handler([u](const Url& url) -> Expected<image::FitsFile> {
                   const auto name = url.param("CLUSTER");
                   if (!name) return Error(ErrorCode::kInvalidArgument, "no CLUSTER");
                   const sim::Cluster* c = u->find_cluster(*name);
                   if (!c) return Error(ErrorCode::kNotFound, "cluster " + *name);
                   return u->xray_field(*c, 128, 8.0);
                 }),
                 EndpointModel{60.0, 10.0, 0.0, true});
    fed.rosat_sia = "http://" + host + "/rosat/sia";
  }

  // ---- IPAC: NED cone search ----
  {
    const std::string host = Federation::kIpacHost;
    fabric.route(host, "/ned/cone",
                 make_indexed_cone_search_handler(
                     combined_catalog(universe, &sim::Universe::ned_catalog)),
                 EndpointModel{90.0, 8.0, 0.0, true});
    fed.ned_cone = "http://" + host + "/ned/cone";
  }

  // ---- CADC: CNOC survey, SIA + cone ----
  {
    const std::string host = Federation::kCadcHost;
    const std::string image_base = "http://" + host + "/cnoc/image";
    fabric.route(host, "/cnoc/sia",
                 make_sia_query_handler(
                     make_field_finder(universe, "CNOC field", image_base, 512, 2.0)),
                 EndpointModel{110.0, 5.0, 0.0, true});
    fabric.route(host, "/cnoc/image", make_stored_image_handler(optical_field(u)),
                 EndpointModel{110.0, 5.0, 0.0, true});
    fabric.route(host, "/cnoc/cone",
                 make_indexed_cone_search_handler(
                     combined_catalog(universe, &sim::Universe::cnoc_catalog)),
                 EndpointModel{110.0, 5.0, 0.0, true});
    fed.cnoc_sia = "http://" + host + "/cnoc/sia";
    fed.cnoc_cone = "http://" + host + "/cnoc/cone";
  }

  // ---- MAST: DSS fields + the dynamic galaxy cutout service ----
  {
    const std::string host = Federation::kMastHost;
    const std::string image_base = "http://" + host + "/dss/image";
    const Handler dss_sia_handler = make_sia_query_handler(
        make_field_finder(universe, "DSS", image_base, 512, 2.0));
    const Handler dss_image_handler = make_stored_image_handler(optical_field(u));

    // Cutout SIA: one record per catalogued galaxy inside the query cone.
    // The per-record acref points at the dynamic cutout endpoint — and a
    // wide cone returns every member in one query, which is exactly the
    // batched mode the paper says would speed things up "tremendously".
    // Each access URL is "<base>?POS=<ra>,<dec>&SIZE=<deg>" with every
    // number printed "%.6f"; the parts shared by every record are built once.
    constexpr double kCutoutDeg = 64.0 / sky::kArcsecPerDeg;  // 64 pix at 1"/pix
    const std::string cutout_prefix = "http://" + host + "/cutout/image?POS=";
    const std::string cutout_suffix = "&SIZE=" + fixed(kCutoutDeg, 6);
    const Handler cutout_sia_handler = make_sia_query_handler(
        [galaxy_index, cutout_prefix, cutout_suffix](const sky::Equatorial& pos,
                                                     double size_deg) {
          std::vector<SiaRecord> out;
          for (const std::size_t id :
               galaxy_index->index->query_cone(pos, size_deg / 2.0)) {
            const sim::GalaxyTruth& g = *galaxy_index->refs[id].galaxy;
            SiaRecord r;
            r.title = g.id;
            r.center = g.position;
            r.size_deg = kCutoutDeg;
            r.access_url = cutout_prefix;
            append_fixed(r.access_url, g.position.ra_deg, 6);
            r.access_url += ',';
            append_fixed(r.access_url, g.position.dec_deg, 6);
            r.access_url += cutout_suffix;
            r.estimated_bytes = 64 * 64 * 4 + 2880 * 2;
            out.push_back(std::move(r));
          }
          return out;
        });
    const Handler cutout_image_handler = make_stored_image_handler(
        [u, galaxy_index](
            const Url& url) -> Expected<std::shared_ptr<const sim::EncodedFrame>> {
          const auto pos_text = url.param("POS");
          const auto size = url.param_double("SIZE");
          if (!pos_text || !size) {
            return Error(ErrorCode::kInvalidArgument, "cutout needs POS and SIZE");
          }
          const auto parts = split(*pos_text, ',');
          const auto ra = parts.size() == 2 ? parse_double(parts[0]) : std::nullopt;
          const auto dec = parts.size() == 2 ? parse_double(parts[1]) : std::nullopt;
          if (!ra || !dec) return Error(ErrorCode::kInvalidArgument, "bad POS");
          const sky::Equatorial pos{*ra, *dec};
          const int pix = std::clamp(
              static_cast<int>(std::lround(*size * sky::kArcsecPerDeg)), 32, 128);
          const GalaxyHit hit =
              nearest_galaxy(*galaxy_index, pos, 30.0 / sky::kArcsecPerDeg);
          if (!hit.galaxy) {
            return Error(ErrorCode::kNotFound,
                         "no catalogued galaxy near " + pos.to_string());
          }
          return u->galaxy_cutout_fits(*hit.cluster, *hit.galaxy, pix);
        });

    fabric.route(host, "/dss/sia", dss_sia_handler, EndpointModel{80.0, 4.0, 0.0, true});
    fabric.route(host, "/dss/image", dss_image_handler,
                 EndpointModel{80.0, 4.0, 0.0, true});
    fabric.route(host, "/cutout/sia", cutout_sia_handler,
                 EndpointModel{80.0, 4.0, 0.0, true});
    fabric.route(host, "/cutout/image", cutout_image_handler,
                 EndpointModel{80.0, 4.0, 0.0, true});

    fed.dss_sia = "http://" + host + "/dss/sia";
    fed.cutout_sia = "http://" + host + "/cutout/sia";

    // Failover mirror: the same DSS + cutout services under a second host
    // (a touch slower, as a farther mirror would be). Never contacted unless
    // a ResilientClient fails over to it, so registering it changes nothing
    // in a fault-free run.
    if (options.with_mirror && !options.mirror_host.empty()) {
      const EndpointModel mirror_model{120.0, 3.0, 0.0, true};
      fabric.route(options.mirror_host, "/dss/sia", dss_sia_handler, mirror_model);
      fabric.route(options.mirror_host, "/dss/image", dss_image_handler, mirror_model);
      fabric.route(options.mirror_host, "/cutout/sia", cutout_sia_handler,
                   mirror_model);
      fabric.route(options.mirror_host, "/cutout/image", cutout_image_handler,
                   mirror_model);
      fed.mirror_host = options.mirror_host;
    }
  }

  return fed;
}

}  // namespace nvo::services
