// Monitoring and Discovery Service. The paper: "Currently the information
// about the available resources is statically configured. In the near
// future, we plan to include dynamic information provided by Globus
// Monitoring and Discovery Service (MDS)" (§3.2). This is that future
// work: a resource-information service publishing per-site dynamic state
// (free slots, queue depth, load) that the planner can rank
// sites with instead of static configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "grid/grid.hpp"

namespace nvo::grid {

/// A site's dynamic resource record, as an MDS GRIS would publish it.
struct ResourceInfo {
  std::string site;
  int total_slots = 0;
  int busy_slots = 0;
  int queued_jobs = 0;
  double load_average = 0.0;     ///< busy/total smoothed
  double timestamp_s = 0.0;      ///< publication time (simulated)

  int free_slots() const { return total_slots - busy_slots; }
  /// Rank for scheduling: effective wait pressure per slot (lower=better).
  double pressure() const {
    const int slots = std::max(total_slots, 1);
    return (static_cast<double>(busy_slots) + queued_jobs) / slots;
  }
};

/// The index (GIIS): sites publish, planners query. Stale records (older
/// than `ttl_seconds` relative to the query time) are not returned.
class Mds {
 public:
  explicit Mds(double ttl_seconds = 300.0) : ttl_seconds_(ttl_seconds) {}

  /// Publishes (upserts) a site's record.
  void publish(ResourceInfo info);

  /// Fresh record for one site at query time `now_s`.
  std::optional<ResourceInfo> query(const std::string& site, double now_s) const;

  /// Snapshot helper: derives records for every site of a grid, given a
  /// busy/queued map (used by the benchmarks and by the planner seeding).
  static std::vector<ResourceInfo> snapshot(const Grid& grid,
                                            const std::map<std::string, int>& busy,
                                            const std::map<std::string, int>& queued,
                                            double now_s);

  std::size_t size() const { return records_.size(); }

 private:
  double ttl_seconds_;
  std::map<std::string, ResourceInfo> records_;
};

}  // namespace nvo::grid
