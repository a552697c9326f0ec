// Scattering-angle sampling. Tissue phase functions are modelled with the
// Henyey–Greenstein distribution whose single parameter g is the mean
// cosine of the scattering angle — the same g the paper's Table 1 footnote
// defines (g = -1 back-scattering, 0 isotropic, 1 forward).
//
// The samplers are defined inline here: they run once per photon
// interaction (the single hottest call site in the program) and keeping
// the definitions visible lets the compiler fold them into the kernel's
// photon loop without LTO.
#pragma once

#include <algorithm>
#include <cmath>

#include "mc/physics.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace phodis::mc {

/// Sample cos(θ) from the Henyey–Greenstein phase function with anisotropy
/// g in (-1, 1). For g = 0 this reduces to isotropic sampling.
inline double sample_hg_cosine(double g, util::Xoshiro256pp& rng) noexcept {
  const double xi = rng.uniform();
  if (std::abs(g) < 1e-6) {
    return 2.0 * xi - 1.0;  // isotropic limit
  }
  // Inverse-CDF of the HG distribution (Wang & Jacques, MCML manual eq. 3.28).
  const double term = (1.0 - g * g) / (1.0 - g + 2.0 * g * xi);
  const double cos_theta = (1.0 + g * g - term * term) / (2.0 * g);
  return std::clamp(cos_theta, -1.0, 1.0);
}

/// The Henyey–Greenstein probability density p(cosθ) — used by tests and
/// by the analysis module, not by the kernel hot path.
double hg_pdf(double g, double cos_theta) noexcept;

/// Turn the unit direction `dir` by polar angle θ (given as cos θ) and an
/// azimuth φ drawn uniformly from `rng`, through the operators the packet
/// loop applies per lane: sincos_2pi for φ and rotate for the
/// direction-cosine update (mc/physics.hpp).
inline util::Vec3 deflect(const util::Vec3& dir, double cos_theta,
                          util::Xoshiro256pp& rng) noexcept {
  const double sin_theta =
      std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
  const SinCos phi = sincos_2pi(rng.uniform());
  return rotate(dir, cos_theta, sin_theta, phi.cos, phi.sin);
}

/// Full scattering step: sample HG polar angle for anisotropy g and a
/// uniform azimuth, return the new unit direction.
inline util::Vec3 scatter_direction(const util::Vec3& dir, double g,
                                    util::Xoshiro256pp& rng) noexcept {
  return deflect(dir, sample_hg_cosine(g, rng), rng);
}

}  // namespace phodis::mc
