// Photon-packet state, following the variance-reduction convention of the
// MCML family (and the paper's Fig. 1 pseudocode): one "photon" is a packet
// with a continuous weight that decays at each interaction; Russian roulette
// terminates packets whose weight falls below a threshold without bias.
#pragma once

#include <cstdint>

#include "util/vec3.hpp"

namespace phodis::mc {

/// Why a photon packet's history ended.
enum class PhotonFate : std::uint8_t {
  kInFlight = 0,        ///< still propagating
  kAbsorbed,            ///< killed by roulette (all weight deposited)
  kReflectedDiffuse,    ///< escaped through the top surface
  kReflectedSpecular,   ///< reflected at launch without entering the tissue
  kTransmitted,         ///< escaped through the bottom surface
  kDetected,            ///< escaped through the top surface *into the detector*
  kMaxStepsExceeded,    ///< safety valve (counts as lost weight; reported)
};

struct PhotonPacket {
  util::Vec3 pos;                ///< position [mm]; z >= 0 inside the tissue
  util::Vec3 dir{0.0, 0.0, 1.0}; ///< unit direction cosines
  double weight = 1.0;           ///< packet weight in [0, 1]
  std::size_t layer = 0;         ///< index of the current layer
  double optical_pathlength = 0.0;  ///< sum of n * ds [mm], for time gating
  std::uint32_t scatter_events = 0;
  double max_depth = 0.0;        ///< deepest z reached [mm]
  PhotonFate fate = PhotonFate::kInFlight;

  bool alive() const noexcept { return fate == PhotonFate::kInFlight; }
};

}  // namespace phodis::mc
