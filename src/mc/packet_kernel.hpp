// The packet photon loop (KernelMode::kPacket): kPacketWidth photons
// marched together in structure-of-arrays lanes, with the per-event
// transcendentals (log for step sampling, sincos for the azimuth)
// evaluated lane-parallel through mc/vmath.hpp. See packet_kernel.cpp for
// the loop schedule and the determinism argument. Its per-lane physics
// (entry, azimuth and rotation, interface crossing, exits and detector,
// roulette) is the operator set of mc/physics.hpp, shared with the scalar
// loop; the contract in brief:
//
//  * NOT bitwise-equal to the scalar loop (a different step log, draw
//    schedule, HG and deposit arithmetic, and 52-bit uniforms). It has
//    its own golden hashes and is tied to the scalar reference by the
//    statistical-equivalence test below.
//  * Deterministic in itself: the tally produced for a given (config,
//    photon_count, rng state) is identical across thread counts, build
//    types, sanitizers, and instruction sets — each lane draws from its
//    own RNG sub-stream (2^192 apart via Xoshiro256pp::long_jump), so a
//    photon's trajectory is a function of its stream position alone,
//    independent of which lane it lands in or what its packet-mates do;
//    and no build contracts or reassociates FP (see PacketIsa below).
//  * Supported configuration subset is enforced by KernelConfig::validate:
//    probabilistic boundaries, no path grid, every layer µt > 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/kernel.hpp"
#include "mc/tally.hpp"
#include "util/rng.hpp"

namespace phodis::mc {

/// Simulate `photon_count` packets through the batched SoA loop,
/// accumulating into `tally` (which must have the shape of
/// kernel.make_tally()). Advances `rng` by exactly kPacketWidth
/// long_jump()s — the per-lane sub-streams — regardless of photon count.
/// Adds the run's event counts to `stats`, which it does not flush.
/// Runs the dispatched_packet_isa() build.
void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally,
                KernelStats& stats);

// --- instruction-set builds -------------------------------------------------
//
// packet_kernel.cpp and vmath.cpp are compiled once per PacketIsa, at the
// same kPacketWidth and the same -O3 -ffp-contract=off flags, each into
// its own namespace below. run_packet calls the widest build this CPU can
// execute, chosen once per process. With no FMA contraction and no
// reassociation, a wider register changes how many lanes one instruction
// covers, never a rounding: every build produces the same tally bytes,
// so the packet golden hashes pin all of them.

enum class PacketIsa : std::uint8_t {
  kAvx2,    ///< -mavx2: two ymm registers per 8-lane array
  kAvx512,  ///< -mavx512f/dq/vl/bw: one zmm register per 8-lane array
};

/// Every build, narrowest first.
inline constexpr PacketIsa kPacketIsas[] = {PacketIsa::kAvx2,
                                            PacketIsa::kAvx512};

std::string to_string(PacketIsa isa);  ///< "avx2" | "avx512"

/// The CPU features the AVX-512 build is compiled for.
struct Avx512Features {
  bool f = false;
  bool dq = false;
  bool vl = false;
  bool bw = false;
};

/// This CPU's features, as __builtin_cpu_supports reports them.
Avx512Features host_avx512_features() noexcept;

/// The dispatch rule: kAvx512 exactly when every feature is present.
PacketIsa select_packet_isa(const Avx512Features& cpu) noexcept;

/// Whether this CPU can execute `isa`'s build.
bool packet_isa_supported(PacketIsa isa) noexcept;

/// The build run_packet uses in this process: select_packet_isa of the
/// host, resolved on first use, which also sets the registry gauge
/// mc_packet_isa{isa="avx2"|"avx512"} to 1.
PacketIsa dispatched_packet_isa();

/// One build's entry points, so tests and bench_kernel can exercise
/// every build the host supports. Calling a build the CPU lacks raises
/// SIGILL: check packet_isa_supported() first.
struct PacketIsaBuild {
  void (*run)(const Kernel&, std::uint64_t, util::Xoshiro256pp&,
              SimulationTally&, KernelStats&);
  void (*vlog)(const double*, double*, std::size_t) noexcept;
  void (*vsincos_2pi)(const double*, double*, double*, std::size_t) noexcept;
};
const PacketIsaBuild& packet_isa_build(PacketIsa isa) noexcept;

namespace isa_avx2 {
void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally,
                KernelStats& stats);
}  // namespace isa_avx2

namespace isa_avx512 {
void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally,
                KernelStats& stats);
}  // namespace isa_avx512

/// Default acceptance threshold for statistical_equivalence(): 6 combined
/// standard errors. With ~10 quantities checked per comparison, a true-null
/// false-positive is < 1e-8 per run while a physics bug of a few parts in
/// 1e3 at typical test sizes (1e5 photons) sits tens of sigma out.
inline constexpr double kDefaultStatSigma = 6.0;

/// One quantity's scalar-vs-packet comparison.
struct StatCheck {
  std::string name;
  double reference = 0.0;  ///< scalar-mode value
  double candidate = 0.0;  ///< packet-mode value
  double sigma = 0.0;      ///< combined standard error of the difference
  double z = 0.0;          ///< |reference - candidate| / sigma
  bool pass = true;
};

/// Result of comparing two tallies of the same configuration run in
/// different kernel modes (or any two independent runs).
struct StatEquivalence {
  bool pass = true;
  double max_z = 0.0;
  std::vector<StatCheck> checks;

  /// One line per check: "name: ref=… cand=… z=… [OK|FAIL]".
  std::string summary() const;
};

/// Test that `candidate` agrees with `reference` within `k_sigma` combined
/// standard errors on the global energy balance (specular / diffuse
/// reflectance, transmittance, absorbed and detected weight fractions), on
/// the detected photon count per launch, and on the mean detected
/// pathlength. Standard errors use the conservative Bhatia–Davis bound
/// p(1-p)/N for the weight fractions (per-photon contributions lie in
/// [0, 1] up to rare roulette survivors), the binomial p(1-p)/N for the
/// count, and the std<=mean exponential-tail bound for the pathlength
/// mean, so a pass criterion of k_sigma = 6 is loose against noise yet
/// tight against any systematic physics divergence.
StatEquivalence statistical_equivalence(const SimulationTally& reference,
                                        const SimulationTally& candidate,
                                        double k_sigma = kDefaultStatSigma);

}  // namespace phodis::mc
