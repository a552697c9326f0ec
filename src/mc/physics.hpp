// The per-event photon physics of the paper's Fig. 1 as named operators,
// called by both photon loops: scalar (kernel.cpp) and packet
// (packet_kernel.cpp). A physics fix made here reaches both at once.
//
//   enter_tissue       "initialise photon": specular loss + refraction
//   sincos_2pi         the azimuth φ = 2πu of "scatter photon"
//   rotate             "scatter photon": the direction-cosine update
//   interface_fresnel  "if (photon angle > critical angle)": TIR or R(θ)
//   refract            "else refract": the Snell update
//   score_exit_top     "if (photon passed through detector) save path"
//   score_exit_bottom  transmittance through the bottom surface
//   survive_roulette   "if (weight too small) survive roulette"
//
// Operators never draw: one that needs a uniform takes it as an argument,
// so each loop keeps its own draw schedule, and D7 checks the draws there.
// Three parts stay per loop because the two golden sets pin different
// arithmetic for them:
//  * step sampling and the hop: scalar takes glibc log and divides s/µt
//    behind a z-gap filter; packet takes vmath's vlog and multiplies by
//    1/µt in its fixed 3-draw schedule;
//  * the absorbed weight: W·µa/µt in scalar, W·(µa/µt) in packet;
//  * Henyey–Greenstein sampling of cos θ: scalar divides, packet
//    multiplies by per-layer constants.
//
// The packet TUs are compiled once per instruction set, so every operator
// is always_inline: no ISA build may emit an out-of-line (weak) copy for
// the linker to pick for the whole program (tools/check_isa_leak.cmake).
// The packet TUs and the scalar kernel both forbid FMA contraction (the
// former by -ffp-contract=off, the latter by ISO C++ mode on a baseline
// x86-64 target), so sincos_2pi and rotate round identically in both.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "mc/compiled_medium.hpp"
#include "mc/detector.hpp"
#include "mc/fresnel.hpp"
#include "mc/photon.hpp"
#include "mc/radial.hpp"
#include "mc/tally.hpp"
#include "util/vec3.hpp"

namespace phodis::mc {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
/// |dir.z| below this counts as horizontal flight: no interface ahead.
inline constexpr double kDirEps = 1e-12;

/// Russian roulette, the unbiased termination rule: a packet whose weight
/// drops below `threshold` survives with probability 1/m carrying weight
/// m·w, otherwise dies; the expected weight is preserved exactly.
struct RouletteSpec {
  double threshold = 1e-4;  ///< weight below which roulette is played
  double survival_multiplier = 10.0;  ///< m: survivor weight scale (= 1/p)

  void validate() const {
    if (!(threshold > 0.0) || threshold >= 1.0) {
      throw std::invalid_argument("RouletteSpec: threshold must be in (0,1)");
    }
    if (!(survival_multiplier > 1.0)) {
      throw std::invalid_argument(
          "RouletteSpec: survival multiplier must be > 1");
    }
  }
};

/// Specular loss and refraction into layer 0 before the first step: the
/// normal-incidence ((n1-n2)/(n1+n2))^2 for a collimated source, the full
/// Fresnel expression and a Snell bend for a diverging one. Returns false
/// when the photon never enters (TIR, or no transmitted weight); it is
/// then tallied as specular with a zero depth sample.
[[gnu::always_inline]] inline bool enter_tissue(
    PhotonPacket& photon, const CompiledMedium& medium,
    SimulationTally& tally) noexcept {
  const FresnelResult entry =
      fresnel(medium.n_above(), medium.n(0), photon.dir.z);
  tally.add_specular(photon.weight * entry.reflectance);
  photon.weight *= 1.0 - entry.reflectance;
  if (entry.total_internal || photon.weight <= 0.0) {
    photon.fate = PhotonFate::kReflectedSpecular;
    tally.record_max_depth(0.0, 1.0);
    return false;
  }
  const double scale = medium.entry_scale();
  photon.dir = util::Vec3{photon.dir.x * scale, photon.dir.y * scale,
                          entry.cos_transmit}
                   .normalized();
  return true;
}

/// sin and cos of an angle given as a fraction of a turn.
struct SinCos {
  double sin = 0.0;
  double cos = 1.0;
};

/// sin(2πu) and cos(2πu) for u in [0, 1), within 2^-50 absolute of the
/// exact values. Taking the angle as a fraction of a turn makes the
/// reduction exact: the quadrant is 4u rounded to the nearest integer and
/// the residual angle is |θ| <= π/4, where fdlibm's k_sin/k_cos minimax
/// polynomials (Sun Microsystems, public domain) apply directly. No table,
/// no branch: lane loops over it vectorize (vmath.cpp's vsincos_2pi).
[[gnu::always_inline]] inline SinCos sincos_2pi(double u) noexcept {
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  // π/2 split so θ = r·hi + r·lo keeps the quadrant residual accurate to
  // ~2^-60 without a double-double multiply.
  constexpr double kPio2Hi = 1.57079632679489655800e+00;
  constexpr double kPio2Lo = 6.12323399573676603587e-17;
  // Adding 2^52 + 2^51 forces round-to-nearest-even to the integer in the
  // low mantissa bits: the classic branch-free double -> int round for
  // values well inside ±2^51.
  constexpr double kRoundMagic = 6755399441055744.0;

  const double a = 4.0 * u;  // quadrant coordinate in [0, 4]
  const double biased = a + kRoundMagic;
  const std::uint64_t q = std::bit_cast<std::uint64_t>(biased);
  const double r = a - (biased - kRoundMagic);  // in [-0.5, 0.5]
  const double theta = r * kPio2Hi + r * kPio2Lo;

  const double z = theta * theta;
  const double sp =
      kS1 + z * (kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6))));
  const double s = theta + theta * z * sp;
  const double cp =
      kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6))));
  const double c = 1.0 - 0.5 * z + z * z * cp;

  // Quadrant rotation: q odd swaps sin and cos; the sign patterns follow
  // sin(x + q·π/2) and cos(x + q·π/2).
  const bool swap = (q & 1) != 0;
  const double ss = swap ? c : s;
  const double cc = swap ? s : c;
  return {(q & 2) != 0 ? -ss : ss, ((q + 1) & 2) != 0 ? -cc : cc};
}

/// Turn the unit direction `dir` by polar angle θ and azimuth φ, given as
/// their cosines and sines: the standard direction-cosine update, with the
/// axis-aligned form selected when |dir.z| > 1 - 1e-10, where the general
/// one divides by sqrt(1 - dir.z^2) ~ 0. Branch-free, so lane loops over
/// it vectorize. One division, and a Newton step in place of the exact
/// renormalisation: a rotated unit vector has |n|^2 = 1 + ε with ε at
/// rounding level, where (3 - |n|^2)/2 = 1/|n| + O(ε^2), an error of
/// ~1e-31, far below one ulp. That keeps |dir| at 1 over any number of
/// scatters without a sqrt and a divide per event.
[[gnu::always_inline]] inline util::Vec3 rotate(const util::Vec3& dir,
                                                double cos_theta,
                                                double sin_theta,
                                                double cos_phi,
                                                double sin_phi) noexcept {
  const double xo = dir.x, yo = dir.y, zo = dir.z;
  const double ct = cos_theta, st = sin_theta;
  const double cp = cos_phi, sp = sin_phi;
  const bool axis = std::abs(zo) > 1.0 - 1e-10;
  double tempsq = 1.0 - zo * zo;
  tempsq = tempsq < 0.0 ? 0.0 : tempsq;
  const double temp = std::sqrt(tempsq);
  const double inv_temp = 1.0 / temp;  // inf on the axis; not selected
  const double gx = st * (xo * zo * cp - yo * sp) * inv_temp + xo * ct;
  const double gy = st * (yo * zo * cp + xo * sp) * inv_temp + yo * ct;
  const double gz = -st * cp * temp + zo * ct;
  const double ax = st * cp;
  const double ay = st * sp;
  const double az = zo > 0.0 ? ct : -ct;
  const double nx = axis ? ax : gx;
  const double ny = axis ? ay : gy;
  const double nz = axis ? az : gz;
  const double inv_norm = 0.5 * (3.0 - (nx * nx + ny * ny + nz * nz));
  return {nx * inv_norm, ny * inv_norm, nz * inv_norm};
}

/// Fresnel at interface (layer, d), d: 0 = up, 1 = down, for incidence
/// cosine `cos_i` from a layer of index `n`. The one-compare TIR test
/// decides the provable cases without a sqrt; the rest take fresnel().
/// total_internal means reflect without a draw; otherwise the caller
/// draws reflect-vs-transmit against `reflectance`.
[[gnu::always_inline]] inline FresnelResult interface_fresnel(
    const CompiledMedium& medium, std::size_t layer, int d, double n,
    double cos_i) noexcept {
  if (cos_i >= kFresnelGrazeEps && cos_i <= medium.tir_cos(layer, d)) {
    return FresnelResult{1.0, 0.0, true};
  }
  return fresnel(n, medium.neighbour_n(layer, d), cos_i);
}

/// Refract through interior interface (layer, d): Snell's law keeps the
/// tangential direction scaled by n_i/n_t. Returns the layer entered.
[[gnu::always_inline]] inline std::size_t refract(util::Vec3& dir,
                                                  const CompiledMedium& medium,
                                                  std::size_t layer, int d,
                                                  double cos_t) noexcept {
  const double scale = medium.n_ratio(layer, d);
  dir = util::Vec3{dir.x * scale, dir.y * scale, d != 0 ? cos_t : -cos_t}
            .normalized();
  return d != 0 ? layer + 1 : layer - 1;
}

/// Tally `weight` escaping through the top surface at `exit`, whose
/// cylindrical radius util::fast_radius(exit.x, exit.y) the caller passes
/// (the packet loop has it batched): diffuse reflectance, R(ρ) when
/// `radial` is set, and a detection when `detector` is set and accepts the
/// exit point and optical pathlength. Returns true on detection.
[[gnu::always_inline]] inline bool score_exit_top(
    SimulationTally& tally, RadialTally* radial,
    const DetectorSpec* detector, const util::Vec3& exit, double radius,
    double optical_pathlength, std::uint32_t scatter_events,
    double weight) noexcept {
  tally.add_diffuse_reflectance(weight);
  if (radial != nullptr) radial->score_reflectance(radius, weight);
  if (detector != nullptr && detector->accepts(exit, optical_pathlength)) {
    tally.record_detection(weight, optical_pathlength, radius,
                           scatter_events);
    return true;
  }
  return false;
}

/// Tally `weight` escaping through the bottom surface at cylindrical
/// radius `radius`: transmittance, and T(ρ) when `radial` is set.
[[gnu::always_inline]] inline void score_exit_bottom(SimulationTally& tally,
                                                     RadialTally* radial,
                                                     double radius,
                                                     double weight) noexcept {
  tally.add_transmittance(weight);
  if (radial != nullptr) radial->score_transmittance(radius, weight);
}

/// Play roulette on `weight` (the caller plays it once weight is below
/// spec.threshold) with the uniform draw `u` in [0, 1). Books the gain or
/// loss in the tally's ledger and returns the new weight; 0 means death.
/// Zero weight dies whatever `u` is: a photon that has deposited
/// everything never survives to be scored again.
[[gnu::always_inline]] inline double survive_roulette(
    double weight, const RouletteSpec& spec, double u,
    SimulationTally& tally) noexcept {
  const double after =
      u * spec.survival_multiplier < 1.0 ? weight * spec.survival_multiplier
                                         : 0.0;
  if (after == 0.0) {
    tally.add_roulette_loss(weight);
    return 0.0;
  }
  tally.add_roulette_gain(after - weight);
  return after;
}

}  // namespace phodis::mc
