// Replica Location Service: the Globus RLS stand-in ("Pegasus uses services
// such as the Globus Replica Location Service ... to locate the input data
// in the Grid environment", §3.2). Maps logical file names to physical
// locations (site + physical name). Thread-safe: the asynchronous compute
// service registers results while the portal polls.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/expected.hpp"

namespace nvo::pegasus {

struct Replica {
  std::string lfn;   ///< logical file name
  std::string site;  ///< grid site (or archive host) holding the copy
  std::string pfn;   ///< physical file name / URL at that site
  /// Content digest of the replica's bytes (services::integrity's
  /// content_digest, 0 = unrecorded). The RLS carries the digest alongside
  /// the location so every consumer — cache admission, stage-in
  /// verification, checkpoint replay — can check the bytes it received
  /// against what the producer registered.
  std::uint64_t digest = 0;
};

class ReplicaLocationService {
 public:
  /// Registers a replica; duplicate (lfn, site) pairs update the pfn (and
  /// the digest, when a non-zero one is supplied).
  void add(const std::string& lfn, const std::string& site, const std::string& pfn,
           std::uint64_t digest = 0);

  /// Removes one site's replica of a file.
  Status remove(const std::string& lfn, const std::string& site);

  /// All replicas of a logical file (empty when unknown).
  std::vector<Replica> lookup(const std::string& lfn) const;

  /// Allocation-reusing fast path: clears and refills `out` with the
  /// replicas of `lfn` under a single lock acquisition and returns the
  /// count. Callers that resolve many LFNs (the planner's reduction and
  /// replica-selection stages) keep one scratch vector across calls instead
  /// of paying a fresh allocation per lookup().
  std::size_t lookup_into(const std::string& lfn, std::vector<Replica>& out) const;

  /// True when at least one replica exists.
  bool exists(const std::string& lfn) const;

  /// The recorded content digest for a logical file: the first non-zero
  /// digest among its replicas (all replicas of an LFN are the same bytes),
  /// or 0 when no replica recorded one.
  std::uint64_t digest_for(const std::string& lfn) const;

  /// Checks `digest` against the recorded digest for `lfn`. Ok when they
  /// match or when nothing was recorded; kDataCorruption on a mismatch
  /// (counted in Stats::digest_mismatches).
  Status verify_digest(const std::string& lfn, std::uint64_t digest) const;

  std::size_t num_logical_files() const;

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t registrations = 0;
    std::uint64_t digest_checks = 0;
    std::uint64_t digest_mismatches = 0;
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<Replica>> replicas_;
  mutable Stats stats_;
};

}  // namespace nvo::pegasus
