// T1 — Paper Table 1: "Data and Interfaces used by the Galaxy Morphology
// Application". Regenerates the federation inventory (five data centers,
// their collections, and the interfaces each implements) and measures each
// interface live against the simulated archives: metadata-query latency and
// a data fetch, in simulated WAN milliseconds. Claim: every one of the seven
// endpoint/interface pairs answers with a non-empty body.
#include <cstdio>

#include "shape_claims.hpp"

#include "services/cone_search.hpp"
#include "services/federation.hpp"
#include "services/sia.hpp"
#include "sim/universe.hpp"
#include "votable/votable_io.hpp"

namespace {

using namespace nvo;

int run_table1() {
  const sim::Universe universe = sim::Universe::make_paper_campaign(1, 0.1);
  services::HttpFabric fabric{42};
  const services::Federation federation =
      services::register_federation(fabric, universe);
  const sky::Equatorial pos = universe.clusters().front().center();

  std::printf("=== Table 1: Data and Interfaces used by the Galaxy Morphology "
              "Application ===\n");
  std::printf("%-34s %-28s %-18s %10s %12s\n", "Data Center", "Data Collection",
              "Interface", "query(ms)", "fetch(KB)");

  struct Row {
    const char* center;
    const char* collection;
    const char* interface_name;
    bool is_sia;
    std::string base;
  };
  const Row rows[] = {
      {"Chandra X-ray Center", "Chandra Data Archive", "SIA", true,
       federation.chandra_sia},
      {"NASA HEASARC", "ROSAT X-ray data", "SIA", true, federation.rosat_sia},
      {"NASA IPAC", "NASA Extragalactic DB (NED)", "Cone Search", false,
       federation.ned_cone},
      {"CADC", "CNOC Survey", "SIA", true, federation.cnoc_sia},
      {"CADC", "CNOC Survey", "Cone Search", false, federation.cnoc_cone},
      {"MAST (STScI)", "Digitized Sky Survey (DSS)", "SIA", true,
       federation.dss_sia},
      {"MAST (STScI)", "DSS cutout service", "SIA (cutout)", true,
       federation.cutout_sia},
  };
  bench::ShapeClaims claims;
  for (const Row& row : rows) {
    double query_ms = 0.0;
    double fetch_kb = 0.0;
    bool answered = false;  // at least one record or row, and a non-empty fetch
    if (row.is_sia) {
      const double before = fabric.metrics().total_elapsed_ms;
      auto records = services::sia_query(fabric, row.base, pos, 0.3);
      query_ms = fabric.metrics().total_elapsed_ms - before;
      if (records.ok() && !records->empty()) {
        auto bytes = services::fetch_image_bytes(fabric,
                                                 records->front().access_url);
        if (bytes.ok()) fetch_kb = static_cast<double>(bytes->size()) / 1024.0;
        answered = fetch_kb > 0.0;
      }
    } else {
      const double before = fabric.metrics().total_elapsed_ms;
      auto table = services::cone_search(fabric, row.base, pos, 0.2);
      query_ms = fabric.metrics().total_elapsed_ms - before;
      if (table.ok()) {
        fetch_kb = static_cast<double>(
                       votable::to_votable_xml(table.value()).size()) /
                   1024.0;
        answered = table->num_rows() > 0;
      }
    }
    std::printf("%-34s %-28s %-18s %10.1f %12.1f\n", row.center, row.collection,
                row.interface_name, query_ms, fetch_kb);
    claims.check(answered, std::string(row.center) + " " +
                                     row.interface_name +
                                     " answers with a non-empty body");
  }
  return claims.exit_code();
}

}  // namespace

int main() { return run_table1(); }
