// Tissue model presets transcribed from the paper.
//
// Table 1 gives transport (reduced) scattering coefficients µs' and
// absorption coefficients µa in 1/mm for the five layers of the adult
// head, with thickness ranges in cm. The paper's sources (Okada & Delpy
// 2003; Fukui et al. 2003) use an anisotropy g = 0.9 for tissue and a
// refractive index of 1.4 inside tissue versus 1.0 for air, which we adopt:
// Table 1 only constrains µs' = µs(1-g), so any (µs, g) pair with the same
// product is equivalent in the diffusive regime; tests cover g-invariance.
#pragma once

#include <string>
#include <vector>

#include "mc/layer.hpp"

namespace phodis::mc {

/// One row of the paper's Table 1 in its original units.
struct Table1Row {
  std::string tissue;
  double thickness_cm_lo;  ///< lower bound of the printed range
  double thickness_cm_hi;  ///< upper bound (equal to lo when a single value)
  double mus_prime_per_mm;
  double mua_per_mm;
  double thickness_used_mm;  ///< the value our head model adopts
};

/// The verbatim contents of Table 1 plus the concrete thicknesses the
/// head model uses (chosen inside the printed ranges, following Okada &
/// Delpy's adult model: 3 mm scalp, 7 mm skull, 2 mm CSF, 4 mm grey).
const std::vector<Table1Row>& table1_rows();

/// Default anisotropy and refractive index for the presets.
inline constexpr double kTissueAnisotropy = 0.9;
inline constexpr double kTissueRefractiveIndex = 1.4;
inline constexpr double kAirRefractiveIndex = 1.0;

/// The five-layer adult head model of Table 1 (scalp, skull, CSF, grey
/// matter, semi-infinite white matter).
LayeredMedium adult_head_model(double g = kTissueAnisotropy,
                               double n_tissue = kTissueRefractiveIndex);

/// Homogeneous semi-infinite white matter — the medium of the paper's
/// Fig. 3 verification run.
LayeredMedium homogeneous_white_matter(double g = kTissueAnisotropy,
                                       double n_tissue =
                                           kTissueRefractiveIndex);

/// Homogeneous semi-infinite grey matter (Table 1's grey row), air above
/// and below — the medium phodis_server serves and the walkthroughs use.
LayeredMedium homogeneous_grey_matter(double g = kTissueAnisotropy,
                                      double n_tissue =
                                          kTissueRefractiveIndex);

/// Two-layer phantom: 4 mm of grey matter over semi-infinite white matter
/// (the Table 1 rows), air above and below. The benchmark and golden-test
/// workhorse: one refracting interior interface, one exterior interface,
/// strongly scattering bulk.
LayeredMedium two_layer_model(double g = kTissueAnisotropy,
                              double n_tissue = kTissueRefractiveIndex);

/// Homogeneous slab of the given properties and thickness; `n_ambient`
/// applies both above and below (used by the MCML validation tests).
LayeredMedium homogeneous_slab(const OpticalProperties& props,
                               double thickness_mm, double n_ambient = 1.0);

/// Semi-infinite homogeneous medium (validation against van de Hulst /
/// Giovanelli reference reflectances).
LayeredMedium homogeneous_semi_infinite(const OpticalProperties& props,
                                        double n_ambient = 1.0);

}  // namespace phodis::mc
