// The per-event photon physics of the paper's Fig. 1 as named operators,
// called by both photon loops: scalar (kernel.cpp) and packet
// (packet_kernel.cpp). A physics fix made here reaches both at once.
//
//   enter_tissue       "initialise photon": specular loss + refraction
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
//  * step sampling and the hop: scalar divides s/µt behind a z-gap
//    filter; packet multiplies by 1/µt in its fixed 3-draw schedule;
//  * the absorbed weight: W·µa/µt in scalar, W·(µa/µt) in packet;
//  * Henyey–Greenstein sampling and rotation: libm `deflect` in scalar,
//    vmath sincos plus a Newton renormalisation in packet.
//
// The packet TUs are compiled once per instruction set, so every operator
// is always_inline: no ISA build may emit an out-of-line (weak) copy for
// the linker to pick for the whole program (tools/check_isa_leak.cmake).
#pragma once

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
