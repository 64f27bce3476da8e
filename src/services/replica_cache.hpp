// Sharded, byte-budgeted LRU cache for staged replicas (cutout images,
// materialized VOTables), content-addressed by logical file name. This is
// the compute service's local GridFTP-class store: entries are registered in
// the Replica Location Service by the owner, so Pegasus workflow reduction
// prunes stage-in transfer nodes for cache-resident LFNs, and evictions are
// reported back so the RLS never advertises a replica the cache has dropped.
//
// Concurrency: the key space is hash-partitioned across shards, each with
// its own mutex and LRU list, so concurrent staging threads contend only
// when they hash to the same shard. Payloads are immutable and handed out
// as shared_ptr, which pins the bytes for in-flight computations — an
// eviction never invalidates data a kernel is reading.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace nvo::services {

struct ReplicaCacheConfig {
  /// Total byte budget, split evenly across shards. 0 means unbounded.
  std::size_t byte_budget = 256ull << 20;
  /// Shard count; rounded up to a power of two. Use 1 for a strict global
  /// LRU order (tests); the default spreads lock contention.
  std::size_t shards = 8;
};

class ReplicaCache {
 public:
  using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;
  /// Invoked for every entry dropped by the LRU policy (and for self-healed
  /// integrity mismatches); owners use it to deregister the replica from
  /// the RLS/grid.
  ///
  /// Lock discipline: the callback always fires OUTSIDE every shard lock,
  /// and the callback slot itself is guarded by a dedicated mutex that is
  /// released before invocation. Re-entrant calls into the same cache from
  /// inside the callback — get/put/contains/digest_of/stats, and even
  /// set_eviction_callback — are therefore safe; a re-entrant put may
  /// trigger nested evictions, whose callbacks fire in nesting order. The
  /// one obligation on the callback is termination: a put from inside a
  /// callback that always overflows the budget recurses until it evicts
  /// nothing new.
  using EvictionCallback = std::function<void(const std::string& lfn)>;

  explicit ReplicaCache(ReplicaCacheConfig config = {});

  /// Looks up and pins a payload; nullptr on miss. Refreshes LRU order.
  /// Every hit re-verifies the stored bytes against the digest recorded at
  /// admission; a mismatch (in-memory rot, or a bug writing through the
  /// immutable payload) self-heals — the entry is dropped, the eviction
  /// callback deregisters it, and the caller sees a miss and re-stages.
  Payload get(const std::string& lfn);

  /// Inserts (or replaces) an entry and returns the pinned payload. May
  /// evict least-recently-used entries from the same shard to fit the
  /// budget; the inserted entry itself is never evicted by its own put.
  /// When `expected_digest` is non-zero the bytes are verified on admission
  /// (integrity::content_digest, services/integrity.hpp) and a mismatch
  /// rejects the put (nullptr, counted in Stats::integrity_rejects) —
  /// corrupt bytes never become a cacheable replica.
  Payload put(const std::string& lfn, std::vector<std::uint8_t> bytes,
              std::uint64_t expected_digest = 0);

  /// Content digest recorded at admission; 0 when not resident.
  std::uint64_t digest_of(const std::string& lfn) const;

  /// True when resident, without touching LRU order or hit/miss counters.
  bool contains(const std::string& lfn) const;

  void set_eviction_callback(EvictionCallback cb);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t integrity_rejects = 0;    ///< puts refused on digest mismatch
    std::uint64_t integrity_mismatches = 0; ///< hits whose bytes failed re-check
    std::size_t bytes = 0;    ///< resident payload bytes
    std::size_t entries = 0;  ///< resident entry count
  };
  /// Aggregated across shards.
  Stats stats() const;

  const ReplicaCacheConfig& config() const { return config_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// MRU at front. Entries hold iterators into this list.
    std::list<std::string> lru;
    struct Entry {
      Payload payload;
      std::uint64_t digest = 0;  ///< content digest recorded at admission
      std::list<std::string>::iterator lru_it;
    };
    std::unordered_map<std::string, Entry> map;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t integrity_rejects = 0;
    std::uint64_t integrity_mismatches = 0;
  };

  Shard& shard_for(const std::string& lfn);
  const Shard& shard_for(const std::string& lfn) const;

  /// Copies the callback out under cb_mu_ (so set_eviction_callback can
  /// race with eviction paths) and invokes it unlocked.
  void notify_evicted(const std::string& lfn);

  ReplicaCacheConfig config_;
  std::size_t shard_budget_ = 0;  ///< per-shard slice of the byte budget
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex cb_mu_;  ///< guards on_evict_ only; never held in calls
  EvictionCallback on_evict_;
};

}  // namespace nvo::services
