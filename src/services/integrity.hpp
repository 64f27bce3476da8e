// End-to-end payload integrity for the simulated data plane. The paper's
// execution layer (§4) assumes GridFTP either delivers the bytes or fails;
// nothing in a 2003-era grid detected a transfer that *succeeded with wrong
// bytes*, and a silently corrupted cutout would quietly skew the Conselice
// concentration/asymmetry indices. This module closes that gap:
//
//  - every HttpResponse is signed at serve time with a cheap content digest
//    bound to the canonical request URL (so a stale replica — valid bytes
//    for a *different* resource — is just as detectable as a bit flip); an
//    origin serving bytes it stored earlier supplies the content digest it
//    recorded then, so only the URL binding happens at serve time;
//  - clients recompute the digest after transfer and treat a mismatch as a
//    retryable transport fault, counting against the unified retry budget;
//  - a QuarantineList remembers (endpoint, resource) pairs that served bad
//    bytes so the failover layer prefers the mirror until the quarantine
//    lapses on the simulated clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "services/http.hpp"

namespace nvo::services::integrity {

/// The payload digest (common/digest.hpp), under the name the integrity
/// checks have always used.
using nvo::content_digest;

/// Binds a content digest to the resource it was served for. Both sides
/// derive the binding from the *canonical* URL (Url::to_string of the
/// parsed request), so client-side encoding quirks cannot desynchronize
/// the signature. The resilient client computes that string once per
/// fetch and hands the same string to the fabric, which signs against it.
std::uint64_t bind_digest(std::uint64_t content, std::string_view canonical_url);

/// Serve-time signature: content digest of `body` bound to the canonical
/// URL (the Url overload serializes `url` first).
std::uint64_t sign_payload(const std::vector<std::uint8_t>& body,
                           std::string_view canonical_url);
std::uint64_t sign_payload(const std::vector<std::uint8_t>& body, const Url& url);

/// True when `response` carries a signature and it does NOT match the body
/// as received for the canonical URL. Unsigned responses (digest == 0)
/// verify trivially: the fabric signs everything, but hand-built fixtures
/// may not.
bool payload_mismatch(const HttpResponse& response, std::string_view canonical_url);
bool payload_mismatch(const HttpResponse& response, const Url& url);

/// The quarantine resource key for a URL: the service path only, so one bad
/// payload quarantines the whole endpoint — a cutout service that flipped
/// bits for one galaxy is not re-trusted for the next galaxy's query either.
/// (Host is tracked separately so mirror failover can reuse the key.)
std::string resource_key(const Url& url);

/// Per-endpoint quarantine list. A replica that failed digest verification
/// is quarantined for a stretch of simulated time; while quarantined, the
/// resilient client goes straight to the alternate archive/mirror instead
/// of re-trusting the endpoint that served bad bytes. Entries expire lazily
/// against the simulated clock, or early on a verified success.
class QuarantineList {
 public:
  struct Stats {
    std::uint64_t quarantines = 0;  ///< entries added (re-adds included)
    std::uint64_t releases = 0;     ///< cleared early by a verified fetch
    std::uint64_t skips = 0;        ///< requests rerouted around a quarantine
  };

  void quarantine(const std::string& endpoint, const std::string& resource,
                  double now_ms, double duration_ms);
  bool is_quarantined(const std::string& endpoint, const std::string& resource,
                      double now_ms) const;
  /// Clears an entry after the endpoint served verified bytes again.
  void release(const std::string& endpoint, const std::string& resource);
  /// Records that a request was rerouted around a quarantined endpoint.
  void count_skip() { ++stats_.skips; }

  std::size_t active(double now_ms) const;
  const Stats& stats() const { return stats_; }

 private:
  using Key = std::pair<std::string, std::string>;  ///< (endpoint, resource)
  mutable std::map<Key, double> until_ms_;
  Stats stats_;
};

}  // namespace nvo::services::integrity
