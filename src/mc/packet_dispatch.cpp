// The ISA-independent half of packet_kernel.hpp, compiled once at the
// library's default flags: run-time choice between the per-ISA builds of
// the packet loop, and the scalar-vs-packet statistical equivalence check.
#include <algorithm>
#include <cmath>

#include "mc/packet_kernel.hpp"
#include "mc/physics.hpp"
#include "mc/vmath.hpp"
#include "obs/metrics.hpp"

namespace phodis::mc {

namespace {

constexpr PacketIsaBuild kAvx2Build{isa_avx2::run_packet, isa_avx2::vlog,
                                    isa_avx2::vsincos_2pi};
constexpr PacketIsaBuild kAvx512Build{isa_avx512::run_packet,
                                      isa_avx512::vlog,
                                      isa_avx512::vsincos_2pi};

PacketIsa resolve_packet_isa() {
  const PacketIsa isa = select_packet_isa(host_avx512_features());
  obs::registry().gauge("mc_packet_isa", {{"isa", to_string(isa)}}).set(1.0);
  return isa;
}

}  // namespace

std::string to_string(PacketIsa isa) {
  return isa == PacketIsa::kAvx512 ? "avx512" : "avx2";
}

Avx512Features host_avx512_features() noexcept {
  __builtin_cpu_init();
  Avx512Features cpu;
  cpu.f = __builtin_cpu_supports("avx512f");
  cpu.dq = __builtin_cpu_supports("avx512dq");
  cpu.vl = __builtin_cpu_supports("avx512vl");
  cpu.bw = __builtin_cpu_supports("avx512bw");
  return cpu;
}

PacketIsa select_packet_isa(const Avx512Features& cpu) noexcept {
  return cpu.f && cpu.dq && cpu.vl && cpu.bw ? PacketIsa::kAvx512
                                             : PacketIsa::kAvx2;
}

bool packet_isa_supported(PacketIsa isa) noexcept {
  return isa == PacketIsa::kAvx2 ||
         select_packet_isa(host_avx512_features()) == PacketIsa::kAvx512;
}

PacketIsa dispatched_packet_isa() {
  static const PacketIsa isa = resolve_packet_isa();
  return isa;
}

const PacketIsaBuild& packet_isa_build(PacketIsa isa) noexcept {
  return isa == PacketIsa::kAvx512 ? kAvx512Build : kAvx2Build;
}

void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally,
                KernelStats& stats) {
  packet_isa_build(dispatched_packet_isa()).run(kernel, photon_count, rng,
                                                tally, stats);
}

namespace {

/// Conservative variance of a mean of per-photon contributions bounded in
/// [0, 1] with sample mean p (Bhatia–Davis: var <= p(1-p)).
double bounded_mean_var(double p, std::uint64_t n) noexcept {
  if (n == 0) return 0.0;
  const double pc = std::clamp(p, 0.0, 1.0);
  return pc * (1.0 - pc) / static_cast<double>(n);
}

}  // namespace

StatEquivalence statistical_equivalence(const SimulationTally& reference,
                                        const SimulationTally& candidate,
                                        double k_sigma) {
  StatEquivalence out;
  const std::uint64_t na = reference.photons_launched();
  const std::uint64_t nb = candidate.photons_launched();

  const auto add_check = [&](const char* name, double a, double b,
                             double sigma) {
    StatCheck c;
    c.name = name;
    c.reference = a;
    c.candidate = b;
    c.sigma = sigma;
    const double diff = std::abs(a - b);
    c.z = sigma > 0.0 ? diff / sigma : (diff == 0.0 ? 0.0 : kInf);
    c.pass = c.z <= k_sigma;
    out.pass = out.pass && c.pass;
    out.max_z = std::max(out.max_z, c.z);
    out.checks.push_back(std::move(c));
  };
  const auto add_fraction = [&](const char* name, double a, double b) {
    add_check(name, a, b,
              std::sqrt(bounded_mean_var(a, na) + bounded_mean_var(b, nb)));
  };

  add_fraction("specular_reflectance", reference.specular_reflectance(),
               candidate.specular_reflectance());
  add_fraction("diffuse_reflectance", reference.diffuse_reflectance(),
               candidate.diffuse_reflectance());
  add_fraction("transmittance", reference.transmittance(),
               candidate.transmittance());
  add_fraction("absorbed_fraction", reference.absorbed_fraction(),
               candidate.absorbed_fraction());
  add_fraction("detected_fraction", reference.detected_fraction(),
               candidate.detected_fraction());
  add_fraction("lost_fraction", reference.lost_fraction(),
               candidate.lost_fraction());

  // Detected photons per launch: a binomial proportion, so p(1-p)/N is
  // its variance. The weight fractions cannot see photons detected with
  // (near) zero weight; this check can.
  const std::uint64_t da = reference.photons_detected();
  const std::uint64_t db = candidate.photons_detected();
  const auto per_launch = [](std::uint64_t count, std::uint64_t launched) {
    return launched == 0 ? 0.0
                         : static_cast<double>(count) /
                               static_cast<double>(launched);
  };
  add_fraction("detected_count_fraction", per_launch(da, na),
               per_launch(db, nb));

  // Mean detected pathlength: detected-pathlength distributions are
  // broad, roughly exponential-tailed, so std <= mean is a serviceable
  // conservative scale; skip when either run detected too few photons for
  // a mean to be meaningful.
  if (da >= 30 && db >= 30) {
    const double ma = reference.mean_detected_pathlength();
    const double mb = candidate.mean_detected_pathlength();
    const double sigma = std::sqrt(ma * ma / static_cast<double>(da) +
                                   mb * mb / static_cast<double>(db));
    add_check("mean_detected_pathlength_mm", ma, mb, sigma);
  }

  return out;
}

std::string StatEquivalence::summary() const {
  std::string out;
  for (const StatCheck& c : checks) {
    out += c.name;
    out += ": ref=" + std::to_string(c.reference);
    out += " cand=" + std::to_string(c.candidate);
    out += " z=" + std::to_string(c.z);
    out += c.pass ? " [OK]\n" : " [FAIL]\n";
  }
  return out;
}

}  // namespace phodis::mc
