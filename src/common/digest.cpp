#include "common/digest.hpp"

#include <bit>
#include <cstring>

namespace nvo {

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

}  // namespace nvo
