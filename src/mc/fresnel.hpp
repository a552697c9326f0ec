// Fresnel reflection and Snell refraction at a planar interface between
// media of refractive indices n_i (incident side) and n_t (transmitted
// side). The paper's Fig. 1 pseudocode branches on the critical angle:
// beyond it the photon is internally reflected, otherwise it refracts.
//
// fresnel() is defined inline here: it runs on every interface crossing of
// the photon loop, and keeping the definition visible lets the compiler
// fold it into the kernel's photon loop without LTO.
#pragma once

#include <algorithm>
#include <cmath>

namespace phodis::mc {

/// Grazing-incidence cutoff: cos θi below this takes fresnel()'s R = 1
/// branch WITHOUT the total_internal flag. The kernel's one-compare TIR
/// shortcut must exclude exactly this range (a grazing hit consumes a
/// reflect-vs-transmit draw at interior interfaces; TIR does not), so the
/// constant is shared rather than duplicated.
inline constexpr double kFresnelGrazeEps = 1e-12;

/// Result of evaluating an interface crossing.
struct FresnelResult {
  double reflectance = 1.0;     ///< unpolarised R(θi) in [0, 1]
  double cos_transmit = 0.0;    ///< |cos θt|; meaningful when not TIR
  bool total_internal = false;  ///< θi beyond the critical angle
};

/// Evaluate the unpolarised Fresnel reflectance for incidence cosine
/// `cos_i` = |cos θi| in [0, 1]. Handles the three analytic special cases
/// exactly: matched indices (R = 0), normal incidence, and grazing
/// incidence (R = 1).
inline FresnelResult fresnel(double n_i, double n_t, double cos_i) noexcept {
  FresnelResult result;
  cos_i = std::clamp(cos_i, 0.0, 1.0);

  if (n_i == n_t) {  // matched boundary: all light transmits, θt = θi
    result.reflectance = 0.0;
    result.cos_transmit = cos_i;
    return result;
  }

  if (cos_i > 1.0 - 1e-12) {  // normal incidence
    const double r = (n_i - n_t) / (n_i + n_t);
    result.reflectance = r * r;
    result.cos_transmit = 1.0;
    return result;
  }

  if (cos_i < kFresnelGrazeEps) {  // grazing incidence
    result.reflectance = 1.0;
    result.cos_transmit = 0.0;
    return result;
  }

  const double sin_i = std::sqrt(1.0 - cos_i * cos_i);
  const double sin_t = n_i * sin_i / n_t;  // Snell's law
  if (sin_t >= 1.0) {
    result.total_internal = true;
    result.reflectance = 1.0;
    result.cos_transmit = 0.0;
    return result;
  }
  const double cos_t = std::sqrt(1.0 - sin_t * sin_t);

  // Unpolarised reflectance, average of s and p polarisations, written in
  // the sum/difference-angle form used by MCML (numerically stable):
  //   R = 1/2 [ sin^2(θi-θt)/sin^2(θi+θt) ] [ 1 + cos^2(θi+θt)/cos^2(θi-θt) ]
  const double cos_ip = cos_i * cos_t - sin_i * sin_t;  // cos(θi+θt)
  const double cos_im = cos_i * cos_t + sin_i * sin_t;  // cos(θi-θt)
  const double sin_ip = sin_i * cos_t + cos_i * sin_t;  // sin(θi+θt)
  const double sin_im = sin_i * cos_t - cos_i * sin_t;  // sin(θi-θt)
  const double r = 0.5 * (sin_im * sin_im) *
                   (cos_im * cos_im + cos_ip * cos_ip) /
                   ((sin_ip * sin_ip) * (cos_im * cos_im));
  result.reflectance = std::clamp(r, 0.0, 1.0);
  result.cos_transmit = cos_t;
  return result;
}

/// Cosine of the critical angle for n_i > n_t; returns 0 when there is no
/// critical angle (n_i <= n_t), meaning every incidence angle transmits
/// partially.
double critical_cos(double n_i, double n_t) noexcept;

/// Specular reflectance at normal incidence, ((n1-n2)/(n1+n2))^2 — the
/// launch-time loss the kernel applies before the first step.
double specular_reflectance(double n1, double n2) noexcept;

}  // namespace phodis::mc
