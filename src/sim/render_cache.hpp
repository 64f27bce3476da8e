// Process-wide memoization of the simulated archive's image synthesis.
//
// The real campaign fetched cutouts from archive servers whose hot sets are
// cached server-side; in this repository the "server" is the deterministic
// renderer in sim/galaxy.cpp, so re-rendering is our stand-in for archive
// disk I/O. Every synthesis routine is a pure function of its inputs (all
// noise/corruption RNG streams are seeded from the galaxy/cluster truth,
// never from request order), which makes memoization bit-exact: a cache hit
// returns the same bytes a fresh render would produce. Keys are content
// hashes over *all* inputs — universe seed, corruption rate, render options,
// the full truth record of every cluster member, the target galaxy, and the
// frame geometry — so two universes only share entries when their synthesis
// really is identical. The member records enter a key through one population
// key per cluster, which a Universe computes once when it adds the cluster
// (not once per frame); it is still a content hash, so same-seed universes
// share entries, and a cluster the Universe does not own is hashed in full.
//
// Entries are stored the way an archive stores files: the frame's encoded
// FITS bytes plus their content digest, recorded once at insert. The
// archive serves those bytes as they are and signs with the recorded
// digest; callers that need pixels decode them (decode_frame). Holding one
// representation keeps the table at one copy of each frame.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "image/fits.hpp"

namespace nvo::sim {

/// Incremental FNV-1a content hasher for building render-cache keys.
class ContentHash {
 public:
  void bytes(const void* data, std::size_t len);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void f64(double v);  ///< hashes the exact bit pattern
  void text(std::string_view s);  ///< length-prefixed, so fields can't bleed

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// A rendered frame as the archive stores it: its FITS encoding and the
/// content digest of those bytes (common/digest.hpp), recorded once when
/// the frame is stored. Immutable, and shared by every reader.
struct EncodedFrame {
  std::vector<std::uint8_t> fits;
  std::uint64_t digest = 0;
};

/// Byte-budgeted memo table for rendered frames, shared process-wide, one
/// EncodedFrame per key. Because regeneration is pure, eviction is allowed
/// to be crude: when an insert would exceed the budget the whole table is
/// dropped and rebuilt by subsequent misses (an O(1) policy that can never
/// affect results).
class RenderCache {
 public:
  static RenderCache& instance();

  /// Returns the stored frame for `key`; on a miss renders, encodes,
  /// digests and stores it. `render` runs outside the lock; concurrent
  /// misses on the same key may render twice, producing identical frames
  /// (last insert wins).
  std::shared_ptr<const EncodedFrame> get_or_render(
      std::uint64_t key, const std::function<image::FitsFile()>& render);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t clears = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  Stats stats() const;
  void clear();

  explicit RenderCache(std::size_t byte_budget = 256 * 1024 * 1024)
      : byte_budget_(byte_budget) {}

 private:
  const std::size_t byte_budget_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const EncodedFrame>> frames_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t clears_ = 0;
};

/// Decodes a stored frame for callers that need its pixels and header.
image::FitsFile decode_frame(const EncodedFrame& frame);

}  // namespace nvo::sim
