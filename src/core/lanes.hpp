// Four accumulator lanes in one vector register. The kernel's reductions
// keep four partial sums, lane j summing the elements whose index is j mod 4,
// and fold them as (l0 + l1) + (l2 + l3). Each loop runs a scalar head up to
// the first index divisible by 4, then whole blocks of four whose element j
// is lane j, then a scalar tail: every lane sees the same additions in the
// same order as the one-element-at-a-time loop, so the blocked loop is
// bit-identical to it without reassociating anything. An index the scalar
// loop never visits must never reach a lane, not even as an added 0.0.
//
// The types are GCC/Clang vector extensions: one 256-bit register with
// AVX2, two 128-bit registers on the SSE2 baseline. Arithmetic on them is
// element-wise IEEE arithmetic, the same operations the scalar code does;
// float <-> double is __builtin_convertvector (exact widening, and
// round-to-nearest narrowing as static_cast<float>). No helper here takes or
// returns a 32-byte vector by value: without AVX that changes the calling
// convention, and GCC warns about it at every call.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>

namespace nvo::core::lanes {

using f64x4 = double __attribute__((vector_size(32)));
using f32x4 = float __attribute__((vector_size(16)));
/// Result of comparing two f64x4: all ones where true, zero where false.
using mask64x4 = decltype(f64x4{} < f64x4{});
using mask32x4 = decltype(f32x4{} < f32x4{});

/// Lane index j as a double, for the per-element column offsets.
inline constexpr f64x4 kLaneIndex = {0.0, 1.0, 2.0, 3.0};

/// Adds `v` to lane `j` of `acc` alone, for the scalar heads and tails. A
/// select keeps the accumulator in its register (indexing a vector element
/// by a variable goes through memory and stalls the next vector add) and
/// leaves the other lanes untouched rather than adding 0.0 to them.
inline void add_to_lane(f64x4& acc, std::size_t j, double v) {
  constexpr mask64x4 kLaneId = {0, 1, 2, 3};
  acc = kLaneId == static_cast<long>(j & 3) ? acc + v : acc;
}

inline f32x4 load4(const float* p) {
  f32x4 v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Element-wise std::fabs: clears the sign bit, NaN and -0.0 included.
inline f32x4 abs(f32x4 v) {
  return std::bit_cast<f32x4>(std::bit_cast<mask32x4>(v) & 0x7fffffff);
}

/// Elements reversed: {v3, v2, v1, v0}.
inline f32x4 reverse(f32x4 v) { return __builtin_shufflevector(v, v, 3, 2, 1, 0); }

/// True when any element of the mask is set.
inline bool any(const mask64x4& m) { return (m[0] | m[1] | m[2] | m[3]) != 0; }

/// The lane fold every four-lane reduction ends with.
inline double fold(const f64x4& v) { return (v[0] + v[1]) + (v[2] + v[3]); }

}  // namespace nvo::core::lanes
