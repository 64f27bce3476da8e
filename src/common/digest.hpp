// Content digest of raw bytes: the payload-integrity hash of the simulated
// data plane. It lives below every layer that stores or serves bytes, so an
// origin can record a payload's digest when it stores the payload (the
// simulated archive's RenderCache, the compute service's catalogs) and the
// HTTP fabric can sign a serve without re-hashing the body.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nvo {

/// Word-wise 64-bit digest over raw bytes: four 64-bit lanes over 32-byte
/// blocks, tail bytes folded FNV-style, length mixed in. Every step is a
/// bijection of the state, so any change confined to one lane — every
/// single-bit flip among them — always changes the digest. Not
/// cryptographic — the threat model is random corruption (bit flips,
/// truncation, stale replays), not an adversary.
std::uint64_t content_digest(const std::uint8_t* data, std::size_t n);
std::uint64_t content_digest(const std::vector<std::uint8_t>& bytes);

}  // namespace nvo
