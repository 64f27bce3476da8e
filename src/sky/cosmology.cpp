#include "sky/cosmology.hpp"

#include <cassert>
#include <cmath>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "sky/coords.hpp"

namespace nvo::sky {

namespace {

// Four doubles in one vector register (GCC/Clang vector extension; two
// 128-bit registers without AVX). Element-wise arithmetic on it is the
// scalar IEEE arithmetic.
using f64x4 = double __attribute__((vector_size(32)));

constexpr f64x4 kLaneIndex = {0.0, 1.0, 2.0, 3.0};
constexpr f64x4 kE2Floor = {1e-30, 1e-30, 1e-30, 1e-30};

/// Element-wise correctly rounded square root, in place: passing a 32-byte
/// vector by value would change the calling convention without AVX.
inline void sqrt_in_place(f64x4& v) {
#if defined(__AVX__)
  v = _mm256_sqrt_pd(v);
#else
  for (int j = 0; j < 4; ++j) v[j] = std::sqrt(v[j]);
#endif
}

}  // namespace

double Cosmology::hubble_distance_mpc() const { return kSpeedOfLightKmS / h0_km_s_mpc; }

double Cosmology::efunc(double z) const {
  const double zp1 = 1.0 + z;
  const double e2 = omega_m * zp1 * zp1 * zp1 + omega_k() * zp1 * zp1 + omega_lambda();
  return std::sqrt(std::max(e2, 1e-30));
}

double Cosmology::comoving_distance_mpc(double z) const {
  assert(z >= 0.0);
  if (z <= 0.0) return 0.0;
  // Composite Simpson integration of dz'/E(z') on [0, z]. The interior
  // terms w_i / E(z_i) are computed four at a time by efunc's expression in
  // element-wise IEEE arithmetic (sqrt and division correctly rounded, as
  // in the scalar code) and added to the sum one at a time in index order,
  // so the result has the bits of the one-term-at-a-time loop.
  constexpr int kSegments = 256;  // even
  const double h = z / kSegments;
  const double om = omega_m;
  const double ok = omega_k();
  const double ol = omega_lambda();
  double sum = 1.0 / efunc(0.0) + 1.0 / efunc(z);
  int i = 1;
  for (; i + 3 < kSegments; i += 4) {
    // i is odd: the Simpson weights of terms i..i+3 are 4, 2, 4, 2.
    const f64x4 zp1 = 1.0 + h * (static_cast<double>(i) + kLaneIndex);
    const f64x4 e2 = om * zp1 * zp1 * zp1 + ok * zp1 * zp1 + ol;
    f64x4 e = e2 < kE2Floor ? kE2Floor : e2;  // std::max(e2, 1e-30)
    sqrt_in_place(e);
    const f64x4 term = f64x4{4.0, 2.0, 4.0, 2.0} / e;
    sum += term[0];
    sum += term[1];
    sum += term[2];
    sum += term[3];
  }
  for (; i < kSegments; ++i) sum += (i % 2 == 1 ? 4.0 : 2.0) / efunc(h * i);
  return hubble_distance_mpc() * sum * h / 3.0;
}

double Cosmology::transverse_comoving_distance_mpc(double z) const {
  const double dc = comoving_distance_mpc(z);
  const double ok = omega_k();
  if (std::fabs(ok) < 1e-12) return dc;
  const double dh = hubble_distance_mpc();
  const double sqrt_ok = std::sqrt(std::fabs(ok));
  const double x = sqrt_ok * dc / dh;
  if (ok > 0.0) return dh / sqrt_ok * std::sinh(x);
  return dh / sqrt_ok * std::sin(x);
}

double Cosmology::angular_diameter_distance_mpc(double z) const {
  return transverse_comoving_distance_mpc(z) / (1.0 + z);
}

double Cosmology::luminosity_distance_mpc(double z) const {
  return transverse_comoving_distance_mpc(z) * (1.0 + z);
}

double Cosmology::distance_modulus(double z) const {
  const double dl_mpc = luminosity_distance_mpc(z);
  // 10 pc = 1e-5 Mpc.
  return 5.0 * std::log10(std::max(dl_mpc, 1e-30) / 1e-5);
}

double Cosmology::kpc_per_arcsec(double z) const {
  const double da_kpc = angular_diameter_distance_mpc(z) * 1000.0;
  const double arcsec_to_rad = kDegToRad / kArcsecPerDeg;
  return da_kpc * arcsec_to_rad;
}

double Cosmology::surface_brightness_dimming(double z) const {
  const double zp1 = 1.0 + z;
  return zp1 * zp1 * zp1 * zp1;
}

}  // namespace nvo::sky
