// The batched photon loop. Compiled (with vmath.cpp) once per PacketIsa
// under scoped -O3 -ffp-contract=off plus that ISA's -m flags, each build
// into the namespace PHODIS_PACKET_ISA names (see CMakeLists.txt and
// packet_dispatch.cpp): every "for all lanes" loop below is written as
// straight-line branchless arithmetic over fixed-width arrays so gcc
// auto-vectorizes it — no intrinsics.
//
// Loop schedule (one iteration = one propagation event per active lane):
//
//   1. draw u_step, u_evt, u_phi for ALL lanes        [vector]
//   2. step length  -log(u_step) / µt, boundary test,
//      advance positions, pathlengths, depths          [vector]
//   3. HG cosine + azimuth rotation from (u_evt,
//      u_phi), applied to interaction lanes only       [vector, vmath]
//   4. per lane: boundary physics (Fresnel/TIR/refract
//      via u_evt), absorption deposits, roulette,
//      death + refill from the photon stream           [scalar]
//
// Steps 1–3 and the deposit arithmetic are this loop's own schedule, but
// step 3 turns each lane with the scalar loop's operators, sincos_2pi and
// rotate; the per-lane physics of step 4 (entry at refill, the interface
// crossing, exit and detector scoring, roulette) is likewise the operator
// set of mc/physics.hpp.
//
// Every lane consumes the same three draws per iteration from its own
// sub-stream whether its event is an interaction (uses all three) or a
// boundary crossing (u_evt becomes the reflect-vs-transmit draw, u_phi is
// discarded). That fixed schedule is what makes a photon's trajectory a
// function of its stream position alone: lanes never contend for draws,
// so refill order, packet composition, and thread count cannot change any
// photon's path — the basis of the packet golden hashes.
//
// Inactive lanes (stream exhausted) keep flowing through the vector
// sections with benign parked state (weight 0, frozen at a boundary,
// d_move = 0) and are skipped by the scalar section; tallies are only
// ever written for active lanes.
#include "mc/packet_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "mc/photon.hpp"
#include "mc/physics.hpp"
#include "mc/radial.hpp"
#include "mc/vmath.hpp"
#include "util/vec3.hpp"

#if !defined(PHODIS_PACKET_ISA)
// Built once per PacketIsa: PHODIS_PACKET_ISA names the build's namespace.
#error "PHODIS_PACKET_ISA is not defined (see CMakeLists.txt)"
#endif

namespace phodis::mc::PHODIS_PACKET_ISA {

namespace {

constexpr std::size_t W = kPacketWidth;

inline std::uint64_t rotl64(std::uint64_t v, int k) noexcept {
  return (v << k) | (v >> (64 - k));
}

/// All per-lane state, SoA. Lives on the stack for the duration of one
/// run_packet call; 64-byte alignment puts each 8-lane double array on
/// its own cache line (and one AVX-512 load, two AVX2 loads).
struct alignas(64) PacketState {
  // photon state
  double x[W], y[W], z[W];
  double ux[W], uy[W], uz[W];
  double w[W];
  double s_left[W];  ///< dimensionless step remaining across boundaries
  double opl[W];     ///< optical pathlength [mm]
  double maxd[W];    ///< deepest z reached [mm]
  // cached optics row of the lane's current layer; the lhg_* columns are
  // the Henyey–Greenstein sampling constants hoisted out of the per-event
  // loop (linv2g = 1/(2g), +inf at g = 0 where the isotropic branch is
  // selected anyway), trading two of the three per-event divisions for
  // multiplies. linvmut = 1/µt plays the same role for the step length.
  double lz0[W], lz1[W], ln[W], lmut[W], linvmut[W], lg[W], lafrac[W];
  double lhg_1mg2[W];   ///< 1 - g^2
  double lhg_1pg2[W];   ///< 1 + g^2
  double lhg_1mg[W];    ///< 1 - g
  double lhg_2g[W];     ///< 2 g
  double lhg_inv2g[W];  ///< 1 / (2 g)
  // per-lane xoshiro256++ sub-stream state (column i = lane i)
  std::uint64_t r0[W], r1[W], r2[W], r3[W];
  std::uint64_t inter[W];  ///< event count (max_interactions guard)
  std::uint32_t scat[W];   ///< scatter events (detector statistic)
  std::uint32_t layer[W];
  // Lane masks as full-width words (1 = set): 8-byte elements keep every
  // hot loop single-vectype so gcc's vectorizer takes them.
  std::uint64_t active[W];
  std::uint64_t cross[W];  ///< this iteration's event: boundary crossing?
};

/// One xoshiro256++ step on lane i. Matches util::Xoshiro256pp::next()
/// exactly, so lane state round-trips through Xoshiro256pp::from_state /
/// state() at launch time without perturbing the sequence.
inline std::uint64_t lane_next(PacketState& p, std::size_t i) noexcept {
  const std::uint64_t result = rotl64(p.r0[i] + p.r3[i], 23) + p.r0[i];
  const std::uint64_t t = p.r1[i] << 17;
  p.r2[i] ^= p.r0[i];
  p.r3[i] ^= p.r1[i];
  p.r1[i] ^= p.r2[i];
  p.r0[i] ^= p.r3[i];
  p.r2[i] ^= t;
  p.r3[i] = rotl64(p.r3[i], 45);
  return result;
}

/// All three scheduled draws for every lane in one pass: the xoshiro
/// state columns are loaded and stored once instead of three times. The
/// per-lane draw order is fixed — step ((0,1], as 1−u for log's domain),
/// then evt, then phi (both [0,1)) — and lane streams are independent,
/// so the values match three separate per-draw passes bitwise.
/// Split into a pure-u64 state loop and a conversion loop: gcc refuses a
/// vectype when the raw draws and the u64→double converts share one loop,
/// but vectorizes the integer loop and SLPs the conversions this way.
inline void lanes_draw3(PacketState& p, double* u_step, double* u_evt,
                        double* u_phi) noexcept {
  std::uint64_t a[W], b[W], c[W];
  for (std::size_t i = 0; i < W; ++i) {
    a[i] = lane_next(p, i);
    b[i] = lane_next(p, i);
    c[i] = lane_next(p, i);
  }
  // u64 -> double via the 2^52 magic-bias trick: the top 52 bits of the
  // draw are OR-ed into the mantissa of 2^52, giving exactly 2^52 + v, so
  // subtracting 2^52 recovers v with no convert instruction. The
  // static_cast<double>(u64) form has no AVX2 instruction and gcc emits
  // 24 scalar vcvtsi2sd per event (~9% of packet runtime, measured).
  // Packet-mode uniforms therefore have 52-bit resolution (the scalar
  // kernel keeps 53); the 2^-52 grid is far below any physics scale here
  // and the packet goldens pin the resulting stream.
  constexpr std::uint64_t kMagicBits = 0x4330000000000000ULL;  // 2^52
  constexpr double kMagic = 4503599627370496.0;                // 2^52
  for (std::size_t i = 0; i < W; ++i) {
    const double da = std::bit_cast<double>((a[i] >> 12) | kMagicBits);
    const double db = std::bit_cast<double>((b[i] >> 12) | kMagicBits);
    const double dc = std::bit_cast<double>((c[i] >> 12) | kMagicBits);
    u_step[i] = 1.0 - (da - kMagic) * 0x1.0p-52;
    u_evt[i] = (db - kMagic) * 0x1.0p-52;
    u_phi[i] = (dc - kMagic) * 0x1.0p-52;
  }
}

/// uniform [0, 1) for one lane (roulette: drawn only when played, so it
/// stays out of the fixed batched schedule but still lane-local). Same
/// 52-bit resolution as the batched draws above.
inline double lane_uniform(PacketState& p, std::size_t i) noexcept {
  return static_cast<double>(lane_next(p, i) >> 12) * 0x1.0p-52;
}

/// Henyey–Greenstein cosine + sine for all lanes, using the hoisted
/// per-layer constants from PacketState (one division per event instead
/// of three: the 1/(2g) factor is a precomputed multiply — one extra
/// rounding vs the textbook quotient, irrelevant for sampling a
/// distribution and covered by the packet goldens).
///
/// Kept out-of-line on purpose: inlined into the big event loop, gcc's
/// jump threading specialises the clamp ternaries into a branchy CFG
/// that defeats if-conversion ("control flow in loop", no
/// vectorization); as a standalone function over __restrict pointers the
/// loop if-converts and vectorizes cleanly.
__attribute__((noinline)) void lanes_hg_cosine(
    const PacketState& p, const double* __restrict u_evt,
    double* __restrict hg_ct, double* __restrict hg_st) noexcept {
  for (std::size_t i = 0; i < W; ++i) {
    const double xi = u_evt[i];
    const double term = p.lhg_1mg2[i] / (p.lhg_1mg[i] + p.lhg_2g[i] * xi);
    double hg = (p.lhg_1pg2[i] - term * term) * p.lhg_inv2g[i];
    hg = hg < -1.0 ? -1.0 : hg;
    hg = hg > 1.0 ? 1.0 : hg;
    const double iso = 2.0 * xi - 1.0;
    const double ct = std::abs(p.lg[i]) < 1e-6 ? iso : hg;
    double stsq = 1.0 - ct * ct;
    stsq = stsq < 0.0 ? 0.0 : stsq;
    hg_ct[i] = ct;
    hg_st[i] = std::sqrt(stsq);
  }
}

inline void load_layer(PacketState& p, std::size_t i,
                       const CompiledMedium& medium, const double* afrac,
                       std::size_t layer) noexcept {
  p.layer[i] = static_cast<std::uint32_t>(layer);
  p.lz0[i] = medium.z0(layer);
  p.lz1[i] = medium.z1(layer);
  p.ln[i] = medium.n(layer);
  p.lmut[i] = medium.mut(layer);
  p.linvmut[i] = medium.inv_mut(layer);
  const double g = medium.g(layer);
  p.lg[i] = g;
  p.lafrac[i] = afrac[layer];
  p.lhg_1mg2[i] = 1.0 - g * g;
  p.lhg_1pg2[i] = 1.0 + g * g;
  p.lhg_1mg[i] = 1.0 - g;
  p.lhg_2g[i] = 2.0 * g;
  p.lhg_inv2g[i] = 1.0 / (2.0 * g);  // +inf at g = 0: iso branch wins
}

/// Park an exhausted lane: weight 0, frozen on its layer's lower boundary
/// moving down, so the vector sections compute d_move = 0 forever and
/// never produce a non-finite value. The scalar section skips it.
inline void park_lane(PacketState& p, std::size_t i,
                      const CompiledMedium& medium,
                      const double* afrac) noexcept {
  p.active[i] = 0;
  p.x[i] = p.y[i] = 0.0;
  p.ux[i] = p.uy[i] = 0.0;
  p.w[i] = 0.0;
  p.s_left[i] = 1.0;  // always positive: the step is never redrawn
  p.opl[i] = p.maxd[i] = 0.0;
  p.scat[i] = 0;
  p.inter[i] = 0;
  load_layer(p, i, medium, afrac, 0);
  // Pin the lane exactly on a boundary of layer 0, heading into it, so
  // the vector geometry computes d_boundary = 0 (a zero-length "crossing"
  // with no state drift) every iteration. The bottom face can be +inf for
  // a semi-infinite layer; the top face z0 is always finite.
  const bool finite_bottom = medium.z1(0) < kInf;
  p.uz[i] = finite_bottom ? 1.0 : -1.0;
  p.z[i] = finite_bottom ? medium.z1(0) : medium.z0(0);
}

/// Install the next live photon from the stream into lane i. Launch
/// sampling runs through a temporary Xoshiro256pp seeded from the lane's
/// sub-stream state (and written back after), so refill consumes the
/// exact same generator the lane's batched draws use. Photons killed at
/// the surface (specular TIR / zero transmitted weight) are tallied by
/// enter_tissue and the next stream photon is tried.
/// Returns false when the stream is exhausted (caller parks the lane).
inline bool refill_lane(PacketState& p, std::size_t i, const Source& source,
                        const CompiledMedium& medium, const double* afrac,
                        SimulationTally& tally, std::uint64_t& next_photon,
                        std::uint64_t photon_count,
                        std::uint64_t& launched) noexcept {
  while (next_photon < photon_count) {
    ++next_photon;
    util::Xoshiro256pp tmp = util::Xoshiro256pp::from_state(
        {p.r0[i], p.r1[i], p.r2[i], p.r3[i]});
    PhotonPacket ph = source.launch(tmp);
    const std::array<std::uint64_t, 4> st = tmp.state();
    p.r0[i] = st[0];
    p.r1[i] = st[1];
    p.r2[i] = st[2];
    p.r3[i] = st[3];
    tally.count_launch();
    ++launched;
    if (!enter_tissue(ph, medium, tally)) continue;
    p.x[i] = ph.pos.x;
    p.y[i] = ph.pos.y;
    p.z[i] = ph.pos.z;
    p.ux[i] = ph.dir.x;
    p.uy[i] = ph.dir.y;
    p.uz[i] = ph.dir.z;
    p.w[i] = ph.weight;
    p.s_left[i] = 0.0;
    p.opl[i] = 0.0;
    p.maxd[i] = 0.0;
    p.scat[i] = 0;
    p.inter[i] = 0;
    p.active[i] = 1;
    load_layer(p, i, medium, afrac, 0);
    return true;
  }
  return false;
}

}  // namespace

void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally,
                KernelStats& stats) {
  const CompiledMedium& medium = kernel.compiled_medium();
  const KernelConfig& config = kernel.config();
  const Source& source = kernel.source();

  // Per-layer absorbed fraction µa/µt, divided once here. The scalar loop
  // keeps the per-interaction division for its bitwise contract; packet
  // mode pins its own goldens, so the single-rounding form is fair game.
  double afrac_storage[64];
  std::vector<double> afrac_heap;
  double* afrac = afrac_storage;
  if (medium.layer_count() > 64) {
    afrac_heap.resize(medium.layer_count());
    afrac = afrac_heap.data();
  }
  for (std::size_t l = 0; l < medium.layer_count(); ++l) {
    afrac[l] = medium.mua(l) / medium.mut(l);
  }

  VoxelGrid3D* fluence = tally.fluence_grid();
  RadialTally* radial = tally.radial();
  std::optional<RadialTally::Scorer> scorer;
  if (radial) scorer.emplace(*radial);
  const DetectorSpec* detector =
      config.detector ? &*config.detector : nullptr;

  const std::uint64_t max_inter = config.max_interactions;
  const double roulette_threshold = config.roulette.threshold;

  // Lane sub-streams: lane k = caller stream + k long_jump()s (2^192
  // apart). The caller is left advanced by exactly W long_jumps, so a
  // shard executor that derives shard streams with jump() (2^128) keeps
  // every (shard, lane) pair collision-free — see rng.hpp.
  PacketState p;
  for (std::size_t k = 0; k < W; ++k) {
    const std::array<std::uint64_t, 4> st = rng.state();
    p.r0[k] = st[0];
    p.r1[k] = st[1];
    p.r2[k] = st[2];
    p.r3[k] = st[3];
    rng.long_jump();
  }

  std::uint64_t next_photon = 0;
  std::size_t active_count = 0;
  std::uint64_t launched = 0;
  std::uint64_t refills = 0;
  std::uint64_t roulette_terms = 0;
  // Occupancy only falls: a lane parks once the stream is exhausted and
  // is never refilled. So each occupancy level is one run of consecutive
  // iterations, counted when a lane parks rather than every iteration.
  std::uint64_t occupancy[W + 1] = {};
  std::uint64_t iterations = 0;
  std::uint64_t level_start = 0;  ///< iterations run before this level

  for (std::size_t k = 0; k < W; ++k) {
    if (refill_lane(p, k, source, medium, afrac, tally, next_photon,
                    photon_count, launched)) {
      ++active_count;
    } else {
      park_lane(p, k, medium, afrac);
    }
  }

  // Exit/interaction radii are only computed when something radial-ish
  // is scoring; otherwise radius[] stays 0 and is never read.
  const bool need_radius = radial != nullptr || detector != nullptr;

  double u_step[W], u_evt[W], u_phi[W];
  double step_log[W];
  double sphi[W], cphi[W];
  double hg_ct[W], hg_st[W];
  double radius[W] = {};
  double dw[W];
  std::uint64_t alive_evt[W];
  std::uint64_t interact[W];

  while (active_count > 0) {
    ++iterations;

    // --- 1. fixed draw schedule: three uniforms per lane per event ------
    lanes_draw3(p, u_step, u_evt, u_phi);
    vlog(u_step, step_log, W);

    // --- 2. step/boundary geometry + advance, all lanes -----------------
    for (std::size_t i = 0; i < W; ++i) {
      double sl = p.s_left[i];
      sl = sl <= 0.0 ? -step_log[i] : sl;
      const double s_phys = sl * p.linvmut[i];
      const bool down = p.uz[i] > 0.0;
      const double z_target = down ? p.lz1[i] : p.lz0[i];
      double db = (z_target - p.z[i]) / p.uz[i];
      db = db >= 0.0 ? db : 0.0;                       // ulp-outside / NaN
      db = std::abs(p.uz[i]) > kDirEps ? db : kInf;    // horizontal flight
      const bool crossing = db <= s_phys;
      const double d = crossing ? db : s_phys;
      p.x[i] += p.ux[i] * d;
      p.y[i] += p.uy[i] * d;
      p.z[i] += p.uz[i] * d;
      p.opl[i] += d * p.ln[i];
      p.maxd[i] = std::max(p.maxd[i], p.z[i]);
      double rem = sl - d * p.lmut[i];
      rem = rem < 0.0 ? 0.0 : rem;
      p.s_left[i] = crossing ? rem : 0.0;
      p.cross[i] = crossing ? 1u : 0u;
    }

    // Batched exit/interaction radius (expression identical to
    // util::fast_radius, evaluated in this TU either way): replaces up
    // to W scalar sqrts in the per-lane section with two vector sqrts.
    if (need_radius) {
      for (std::size_t i = 0; i < W; ++i) {
        radius[i] = std::sqrt(p.x[i] * p.x[i] + p.y[i] * p.y[i]);
      }
    }

    // --- 3. scattering rotation, computed for all lanes, applied to
    //        interaction lanes (crossing lanes keep their direction for
    //        the Fresnel handling below) -------------------------------
    vsincos_2pi(u_phi, sphi, cphi, W);
    lanes_hg_cosine(p, u_evt, hg_ct, hg_st);
    for (std::size_t i = 0; i < W; ++i) {
      const util::Vec3 old{p.ux[i], p.uy[i], p.uz[i]};
      const util::Vec3 turned =
          rotate(old, hg_ct[i], hg_st[i], cphi[i], sphi[i]);
      const bool scatter = (p.active[i] & (p.cross[i] ^ 1ULL)) != 0;
      p.ux[i] = scatter ? turned.x : old.x;
      p.uy[i] = scatter ? turned.y : old.y;
      p.uz[i] = scatter ? turned.z : old.z;
    }

    // Batched event accounting + deposit arithmetic. Lanes that blow the
    // max_interactions budget this event die with their weight intact —
    // they must not deposit — so the deposit mask carries alive_evt.
    for (std::size_t i = 0; i < W; ++i) {
      p.inter[i] += p.active[i];
    }
    for (std::size_t i = 0; i < W; ++i) {
      alive_evt[i] = p.inter[i] <= max_inter ? 1u : 0u;
    }
    for (std::size_t i = 0; i < W; ++i) {
      interact[i] = p.active[i] & alive_evt[i] & (p.cross[i] ^ 1ULL);
    }
    for (std::size_t i = 0; i < W; ++i) {
      const double d = interact[i] ? p.w[i] * p.lafrac[i] : 0.0;
      dw[i] = d;
      p.w[i] -= d;  // exact no-op (w - 0.0) on non-depositing lanes
    }
    for (std::size_t i = 0; i < W; ++i) {
      p.scat[i] += static_cast<std::uint32_t>(interact[i]);
    }
    // Radial A(r,z) scoring for the interaction lanes, batched so the
    // bounds checks and bin indices vectorize instead of riding the
    // branchy per-lane loop below. Bins accumulate in lane order, the
    // same order the per-lane calls used, so packet goldens are
    // unaffected.
    if (scorer) {
      scorer->absorption_lanes<W>(radius, p.z, dw, interact);
    }

    // --- 4. per-lane physics, tallies, death and refill ------------------
    for (std::size_t i = 0; i < W; ++i) {
      if (!p.active[i]) continue;
      bool dead = false;
      bool by_roulette = false;

      if (p.inter[i] > max_inter) {
        tally.add_lost(p.w[i]);
        dead = true;
      } else if (p.cross[i]) {
        // u_evt is this event's reflect-vs-transmit draw.
        const std::size_t layer = p.layer[i];
        const bool down = p.uz[i] > 0.0;
        const int d = down ? 1 : 0;
        const FresnelResult fr =
            interface_fresnel(medium, layer, d, p.ln[i], std::abs(p.uz[i]));
        if (fr.total_internal || u_evt[i] < fr.reflectance) {
          p.uz[i] = -p.uz[i];
        } else if (medium.exterior(layer, d)) {
          if (down) {
            score_exit_bottom(tally, radial, radius[i], p.w[i]);
          } else {
            score_exit_top(tally, radial, detector, {p.x[i], p.y[i], p.z[i]},
                           radius[i], p.opl[i], p.scat[i], p.w[i]);
          }
          dead = true;
        } else {
          util::Vec3 dir{p.ux[i], p.uy[i], p.uz[i]};
          const std::size_t next =
              refract(dir, medium, layer, d, fr.cos_transmit);
          p.ux[i] = dir.x;
          p.uy[i] = dir.y;
          p.uz[i] = dir.z;
          load_layer(p, i, medium, afrac, next);
        }
      } else {
        // Interaction: scatter the precomputed deposit dw = W·µa/µt into
        // the tally bins (weight, scatter count, and the radial A(r,z)
        // bins already updated in the batched section; direction already
        // rotated above).
        tally.add_absorption(p.layer[i], dw[i]);
        if (fluence) fluence->deposit({p.x[i], p.y[i], p.z[i]}, dw[i]);
      }

      if (!dead && p.w[i] < roulette_threshold) {
        p.w[i] = survive_roulette(p.w[i], config.roulette,
                                  lane_uniform(p, i), tally);
        by_roulette = dead = p.w[i] == 0.0;
      }

      if (dead) {
        tally.record_max_depth(p.maxd[i], 1.0);
        if (by_roulette) ++roulette_terms;
        if (refill_lane(p, i, source, medium, afrac, tally, next_photon,
                        photon_count, launched)) {
          ++refills;
        } else {
          park_lane(p, i, medium, afrac);
          occupancy[active_count] += iterations - level_start;
          level_start = iterations;
          --active_count;
        }
      }
    }
  }

  // Counted in locals above (a reference into `stats` could alias the
  // tally for the compiler) and handed out once per run.
  stats.photons_launched += launched;
  stats.roulette_terminations += roulette_terms;
  stats.lane_refills += refills;
  for (std::size_t o = 1; o <= W; ++o) {
    stats.occupancy[o] += occupancy[o];
    stats.interactions += o * occupancy[o];  // o lanes advanced per iteration
  }
}

}  // namespace phodis::mc::PHODIS_PACKET_ISA
