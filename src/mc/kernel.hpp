// The Monte Carlo photon-transport kernel — the paper's Fig. 1 pseudocode:
//
//   begin
//     initialise photon
//     while (photon survived)
//       move photon
//       if (changed medium)
//         if (photon angle > critical angle) internally reflect
//         else refract
//       if (photon passed through detector) save path and end
//       update absorption and photon weight
//       if (weight too small) survive roulette
//   end
//
// Implemented in the MCML convention: dimensionless step lengths carried
// across layer boundaries, weight deposition W·µa/µt at interaction sites,
// Henyey–Greenstein scattering, Fresnel boundaries, Russian roulette.
//
// Execution model: at construction the medium is lowered into
// CompiledMedium SoA tables, so the photon loop reads each layer's optics
// with no string-bearing Layer loads and no bounds checks. The loop is
// compiled once. It tests the tally's fluence grid, radial scorer and path
// grid where they deposit, and reads the boundary model, the detector and
// trace capture only on rare paths (exterior crossings, exits, trace
// vertices). Its tallies are bitwise-identical to the original
// single-loop kernel (enforced by tests/test_kernel_golden; sole
// intentional exception: radial scoring radii moved from std::hypot to
// util::fast_radius, a last-ulp change re-recorded in that test). The
// per-event physics — entry, Fresnel crossing, refraction, exit scoring
// and roulette — is the set of operators in mc/physics.hpp, shared with
// the packet loop. Either loop counts its events into a run-local
// KernelStats, which run() flushes into the obs registry once per call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mc/compiled_medium.hpp"
#include "mc/detector.hpp"
#include "mc/grid.hpp"
#include "mc/layer.hpp"
#include "mc/photon.hpp"
#include "mc/physics.hpp"
#include "mc/source.hpp"
#include "mc/tally.hpp"
#include "mc/vmath.hpp"
#include "util/rng.hpp"

namespace phodis::mc {

/// How interfaces split photon weight (a feature the paper lists:
/// "refraction and internal reflection (classical physics or probabilistic
/// methods)").
enum class BoundaryModel : std::uint8_t {
  /// Sample reflect-vs-transmit with probability R(θ): the photon stays
  /// whole. Default; lowest variance per unit work for interior physics.
  kProbabilistic = 0,
  /// Classical deterministic splitting at *exterior* interfaces: the
  /// transmitted fraction (1-R)·W escapes and is tallied, the reflected
  /// fraction R·W continues inside. Interior interfaces remain
  /// probabilistic (a single-packet tracker cannot fork without a stack).
  kClassical,
};

BoundaryModel parse_boundary_model(const std::string& name);
std::string to_string(BoundaryModel model);

/// Which photon loop executes a run.
enum class KernelMode : std::uint8_t {
  /// One photon at a time through the scalar loop — the
  /// reference oracle, bitwise-pinned by tests/test_kernel_golden.cpp.
  /// Default everywhere.
  kScalar = 0,
  /// kPacketWidth photons marched in SoA lanes with a vectorized step
  /// log and the scalar loop's azimuth and rotation operators applied
  /// per lane (mc/packet_kernel.*). Deliberately NOT bitwise-equal to
  /// scalar: it has its own golden hashes (self-reproducible at any
  /// thread count) and is statistically equivalent to scalar within
  /// Monte Carlo error (tests/test_packet_kernel.cpp).
  kPacket,
};

KernelMode parse_kernel_mode(const std::string& name);
std::string to_string(KernelMode mode);

struct KernelConfig {
  LayeredMedium medium;
  SourceSpec source;
  std::optional<DetectorSpec> detector;
  BoundaryModel boundary_model = BoundaryModel::kProbabilistic;
  RouletteSpec roulette;

  /// Photon-loop selection. kPacket supports the probabilistic boundary
  /// model with fluence/radial/detector tallies in interacting media
  /// (every layer µt > 0); validate() rejects the rest. trace() always
  /// uses the scalar loop regardless of mode.
  KernelMode mode = KernelMode::kScalar;

  /// Tally shape. `layer_count` is overridden from `medium` by the kernel.
  TallyConfig tally;

  /// When true the path grid accumulates every photon's path, not only
  /// detected ones (used for Fig. 4's all-paths picture).
  bool record_all_paths = false;

  /// Safety valve against pathological configurations (e.g. a lossless
  /// medium between mirrors). Per photon.
  std::uint64_t max_interactions = 1'000'000;

  void validate() const;
};

/// Event counts of photon-loop runs. A loop adds to plain integers; no
/// count reads a draw or writes a tally, so counting is out-of-band of
/// the bitwise contract.
struct KernelStats {
  std::uint64_t photons_launched = 0;
  /// Loop iterations: interaction sites plus interface crossings.
  std::uint64_t interactions = 0;
  std::uint64_t roulette_terminations = 0;
  /// Packet loop: dead lanes re-armed with the next photon of the stream
  /// (the initial fill is not a refill).
  std::uint64_t lane_refills = 0;
  /// Packet loop: occupancy[o] counts iterations with exactly o active
  /// lanes (slot 0 stays zero: the loop exits when no lane is active).
  std::uint64_t occupancy[kPacketWidth + 1] = {};

  /// Add these counts to the process registry's mc_kernel_* metrics:
  /// four counters and the occupancy histogram (bounds 1..kPacketWidth).
  void flush() const;
};

/// One photon's recorded trajectory, for the example programs that draw
/// individual paths.
struct PhotonTrace {
  std::vector<util::Vec3> vertices;
  PhotonFate fate = PhotonFate::kInFlight;
  double final_weight = 0.0;
  double optical_pathlength = 0.0;
};

class Kernel {
 public:
  explicit Kernel(KernelConfig config);

  /// Tally matching this kernel's configuration (layer count, grids).
  SimulationTally make_tally() const;

  /// Simulate `photon_count` packets, accumulating into `tally`, with the
  /// configured loop (scalar or packet), and count the run into the
  /// mc_kernel_* metrics with one flush at the end of the call. The
  /// scalar loop scores into whichever grids `tally` has.
  void run(std::uint64_t photon_count, util::Xoshiro256pp& rng,
           SimulationTally& tally) const;

  /// Simulate one photon and capture its trajectory vertices. Trace
  /// photons are not counted in the mc_kernel_* metrics.
  PhotonTrace trace(util::Xoshiro256pp& rng,
                    std::size_t max_vertices = 100000) const;

  const KernelConfig& config() const noexcept { return config_; }

  /// The medium lowered into flat SoA optics tables at construction.
  const CompiledMedium& compiled_medium() const noexcept { return compiled_; }

  /// The launch-position/direction sampler (used by the packet kernel's
  /// lane refill, which reuses the exact scalar launch sampling).
  const Source& source() const noexcept { return source_; }

 private:
  /// The scalar photon loop for one photon. A non-null `trace_out`
  /// captures the trajectory without changing any draw; `stats` counts the
  /// photon's events. It reproduces the reference loop bit for bit — same
  /// rng draw order, same FP expression order (see the golden test).
  void simulate_one(util::Xoshiro256pp& rng, SimulationTally& tally,
                    KernelStats& stats, PathRecorder& recorder,
                    PhotonTrace* trace_out, std::size_t max_vertices) const;

  KernelConfig config_;
  Source source_;
  CompiledMedium compiled_;
};

}  // namespace phodis::mc
