#include "grid/mds.hpp"

#include <algorithm>

namespace nvo::grid {

void Mds::publish(ResourceInfo info) { records_[info.site] = std::move(info); }

std::optional<ResourceInfo> Mds::query(const std::string& site, double now_s) const {
  const auto it = records_.find(site);
  if (it == records_.end()) return std::nullopt;
  const ResourceInfo& r = it->second;
  if (now_s - r.timestamp_s > ttl_seconds_) return std::nullopt;
  return r;
}

std::vector<ResourceInfo> Mds::snapshot(const Grid& grid,
                                        const std::map<std::string, int>& busy,
                                        const std::map<std::string, int>& queued,
                                        double now_s) {
  std::vector<ResourceInfo> out;
  for (const SiteConfig& s : grid.sites()) {
    ResourceInfo r;
    r.site = s.name;
    r.total_slots = s.slots;
    const auto b = busy.find(s.name);
    r.busy_slots = b == busy.end() ? 0 : b->second;
    const auto q = queued.find(s.name);
    r.queued_jobs = q == queued.end() ? 0 : q->second;
    r.load_average = static_cast<double>(r.busy_slots) / std::max(s.slots, 1);
    r.timestamp_s = now_s;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace nvo::grid
