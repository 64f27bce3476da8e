#include "services/integrity.hpp"

#include <bit>
#include <cstring>

#include "common/rng.hpp"

namespace nvo::services::integrity {

namespace {

constexpr std::uint64_t kLaneMultiplier = 0x9fb21c651e98df25ull;  // odd: `*` is a bijection
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

// One lane step. Both halves are bijections of the lane state (an odd
// multiply, then an xor with a right shift of itself), and `h ^ w` is a
// bijection of the word, so two inputs that differ in one word leave the
// lane in different states, and every later step keeps them apart.
inline std::uint64_t lane_step(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * kLaneMultiplier;
  return h ^ (h >> 29);
}

// Little-endian word load, so the digest is the same on every host.
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  return w;
}

}  // namespace

std::uint64_t content_digest(const std::uint8_t* data, std::size_t n) {
  // Four independent lanes over 32-byte blocks: word k of every block
  // feeds lane k, so the multiplies of one block run in parallel.
  std::uint64_t lane[4] = {0xcbf29ce484222325ull, 0x84222325cbf29ce4ull,
                           0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) lane[k] = lane_step(lane[k], load_le64(data + i + 8 * k));
  }
  // Fold the lanes in order with the same step (a bijection in both the
  // running state and the lane), so a difference confined to one lane
  // survives the fold.
  std::uint64_t h = lane[0];
  for (int k = 1; k < 4; ++k) h = lane_step(h, lane[k]);
  // Tail bytes, FNV-style: each step is a bijection of the byte too.
  for (; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  // Length, then a bijective avalanche (the murmur3 64-bit finalizer).
  h ^= static_cast<std::uint64_t>(n);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

std::uint64_t content_digest(const std::vector<std::uint8_t>& bytes) {
  return content_digest(bytes.data(), bytes.size());
}

std::uint64_t bind_digest(std::uint64_t content, const std::string& canonical_url) {
  // splitmix64 finalization over the (content, binding) pair: a single-bit
  // change in either input flips roughly half the output bits, and the
  // result is never the "unsigned" sentinel by accident in practice.
  std::uint64_t state = content ^ (hash64(canonical_url) + 0x9e3779b97f4a7c15ull);
  const std::uint64_t mixed = splitmix64(state);
  return mixed == 0 ? 0x9e3779b97f4a7c15ull : mixed;
}

std::uint64_t sign_payload(const std::vector<std::uint8_t>& body, const Url& url) {
  return bind_digest(content_digest(body), url.to_string());
}

bool payload_mismatch(const HttpResponse& response, const Url& url) {
  if (response.digest == 0) return false;  // unsigned fixture response
  return sign_payload(response.body, url) != response.digest;
}

std::string resource_key(const Url& url) { return url.path; }

void QuarantineList::quarantine(const std::string& endpoint,
                                const std::string& resource, double now_ms,
                                double duration_ms) {
  until_ms_[{endpoint, resource}] = now_ms + duration_ms;
  ++stats_.quarantines;
}

bool QuarantineList::is_quarantined(const std::string& endpoint,
                                    const std::string& resource,
                                    double now_ms) const {
  const auto it = until_ms_.find({endpoint, resource});
  if (it == until_ms_.end()) return false;
  if (now_ms >= it->second) {
    until_ms_.erase(it);  // lazy expiry on the simulated clock
    return false;
  }
  return true;
}

void QuarantineList::release(const std::string& endpoint,
                             const std::string& resource) {
  if (until_ms_.erase({endpoint, resource}) > 0) ++stats_.releases;
}

std::size_t QuarantineList::active(double now_ms) const {
  std::size_t n = 0;
  for (auto it = until_ms_.begin(); it != until_ms_.end();) {
    if (now_ms >= it->second) {
      it = until_ms_.erase(it);
    } else {
      ++n;
      ++it;
    }
  }
  return n;
}

}  // namespace nvo::services::integrity
