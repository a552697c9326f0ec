#include "mc/kernel.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mc/packet_kernel.hpp"
#include "mc/physics.hpp"
#include "mc/scatter.hpp"
#include "obs/metrics.hpp"
#include "util/fastmath.hpp"

namespace phodis::mc {

BoundaryModel parse_boundary_model(const std::string& name) {
  std::string lower;
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "probabilistic" || lower == "prob") {
    return BoundaryModel::kProbabilistic;
  }
  if (lower == "classical" || lower == "classic") {
    return BoundaryModel::kClassical;
  }
  throw std::invalid_argument("unknown boundary model: " + name);
}

std::string to_string(BoundaryModel model) {
  return model == BoundaryModel::kProbabilistic ? "probabilistic"
                                                : "classical";
}

KernelMode parse_kernel_mode(const std::string& name) {
  std::string lower;
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "scalar") return KernelMode::kScalar;
  if (lower == "packet" || lower == "simd") return KernelMode::kPacket;
  throw std::invalid_argument("unknown kernel mode: " + name);
}

std::string to_string(KernelMode mode) {
  return mode == KernelMode::kScalar ? "scalar" : "packet";
}

void KernelConfig::validate() const {
  if (medium.layer_count() == 0) {
    throw std::invalid_argument("KernelConfig: medium has no layers");
  }
  source.validate();
  if (detector) detector->validate();
  roulette.validate();
  if (max_interactions == 0) {
    throw std::invalid_argument("KernelConfig: max_interactions must be > 0");
  }
  if (record_all_paths && !tally.enable_path_grid) {
    throw std::invalid_argument(
        "KernelConfig: record_all_paths requires the path grid");
  }
  if (mode == KernelMode::kPacket) {
    if (boundary_model != BoundaryModel::kProbabilistic) {
      throw std::invalid_argument(
          "KernelConfig: packet mode supports only the probabilistic "
          "boundary model");
    }
    if (tally.enable_path_grid || record_all_paths) {
      throw std::invalid_argument(
          "KernelConfig: packet mode does not support the path grid "
          "(per-lane deposit replay is a scalar-loop feature)");
    }
    for (std::size_t i = 0; i < medium.layer_count(); ++i) {
      const OpticalProperties& props = medium.layer(i).props;
      if (!(props.mua + props.mus > 0.0)) {
        throw std::invalid_argument(
            "KernelConfig: packet mode requires interacting layers "
            "(every layer µt > 0)");
      }
    }
  }
}

Kernel::Kernel(KernelConfig config)
    : config_(std::move(config)), source_(config_.source) {
  config_.tally.layer_count = config_.medium.layer_count();
  config_.validate();
  compiled_ = CompiledMedium(config_.medium);
}

SimulationTally Kernel::make_tally() const {
  return SimulationTally(config_.tally);
}

PhotonTrace Kernel::trace(util::Xoshiro256pp& rng,
                          std::size_t max_vertices) const {
  SimulationTally scratch = make_tally();
  KernelStats uncounted;
  PathRecorder recorder;
  PhotonTrace result;
  simulate_one(rng, scratch, uncounted, recorder, &result, max_vertices);
  return result;
}

namespace {

/// The mc_kernel_* registry handles, resolved on the first flush.
struct KernelMetrics {
  obs::Counter& photons =
      obs::registry().counter("mc_kernel_photons_launched_total");
  obs::Counter& interactions =
      obs::registry().counter("mc_kernel_interactions_total");
  obs::Counter& roulette =
      obs::registry().counter("mc_kernel_roulette_terminations_total");
  obs::Counter& refills =
      obs::registry().counter("mc_kernel_lane_refills_total");
  // Bucket o-1 (le bound o) holds the iterations with o active lanes.
  obs::Histogram& occupancy = obs::registry().histogram(
      "mc_kernel_packet_occupancy", [] {
        std::vector<double> bounds;
        for (std::size_t o = 1; o <= kPacketWidth; ++o) {
          bounds.push_back(static_cast<double>(o));
        }
        return bounds;
      }());
};

}  // namespace

void KernelStats::flush() const {
  static const KernelMetrics metrics;
  metrics.photons.inc(photons_launched);
  metrics.interactions.inc(interactions);
  metrics.roulette.inc(roulette_terminations);
  metrics.refills.inc(lane_refills);
  for (std::size_t o = 1; o <= kPacketWidth; ++o) {
    if (occupancy[o] != 0) {
      metrics.occupancy.observe(static_cast<double>(o), occupancy[o]);
    }
  }
}

void Kernel::run(std::uint64_t photon_count, util::Xoshiro256pp& rng,
                 SimulationTally& tally) const {
  // One mode test and one registry flush per shard call (thousands of
  // photons), so neither costs the photon loops anything measurable and
  // the shard executors need no mode or counter plumbing of their own.
  KernelStats stats;
  if (config_.mode == KernelMode::kPacket) {
    run_packet(*this, photon_count, rng, tally, stats);
  } else {
    PathRecorder recorder;
    for (std::uint64_t i = 0; i < photon_count; ++i) {
      simulate_one(rng, tally, stats, recorder, nullptr, 0);
    }
  }
  stats.flush();
}

// ---------------------------------------------------------------------------
// The scalar photon loop: its schedule (hop, absorbed weight, scattering)
// around the shared operators of mc/physics.hpp.
//
// BITWISE-IDENTITY CONTRACT: the loop must draw the same rng sequence and
// evaluate the same FP expressions, in the same order, as the loop the
// goldens were recorded from (tests/test_kernel_golden.cpp; its header
// lists the documented re-records). Rules applied below:
//  * cached per-layer scalars (lz0..lg) hold the same doubles the Layer
//    struct held — caching is a load-elimination, not a re-derivation;
//  * s/µt and W·µa/µt keep their divisions (multiplying by a precomputed
//    inverse rounds differently);
//  * the boundary-distance filter and the one-compare TIR test only
//    short-circuit work whose outcome is proven, never approximate it;
//  * the per-interaction deposits test whether their grid exists, and
//    touch no draw either way; the optical pathlength and scatter count
//    are always accumulated — only a detection or a trace reads them.
// ---------------------------------------------------------------------------

namespace {

[[gnu::noinline]] void record_vertex(PhotonTrace& trace,
                                     std::size_t max_vertices,
                                     const util::Vec3& p) {
  if (trace.vertices.size() < max_vertices) trace.vertices.push_back(p);
}

}  // namespace

void Kernel::simulate_one(util::Xoshiro256pp& rng, SimulationTally& tally,
                          KernelStats& stats, PathRecorder& recorder,
                          PhotonTrace* trace_out,
                          std::size_t max_vertices) const {
  const CompiledMedium& medium = compiled_;
  PhotonPacket photon = source_.launch(rng);
  tally.count_launch();
  ++stats.photons_launched;
  recorder.clear();

  VoxelGrid3D* const fluence = tally.fluence_grid();
  VoxelGrid3D* const path_grid = tally.path_grid();
  RadialTally* const radial = tally.radial();
  const DetectorSpec* const detector =
      config_.detector ? &*config_.detector : nullptr;
  // Register-resident scoring handle for the per-interaction radial
  // deposits (the rare exit-surface scores go through the tally).
  std::optional<RadialTally::Scorer> radial_scorer;
  if (radial != nullptr) radial_scorer.emplace(*radial);

  const auto note_vertex = [&](const util::Vec3& p) {
    if (trace_out != nullptr) [[unlikely]] {
      record_vertex(*trace_out, max_vertices, p);
    }
  };
  const auto note_final_state = [&] {
    if (trace_out) {
      trace_out->fate = photon.fate;
      trace_out->final_weight = photon.weight;
      trace_out->optical_pathlength = photon.optical_pathlength;
    }
  };
  // Tally `weight` leaving through the surface the photon is heading for;
  // returns true when the detector takes it. Out of line, like the trace
  // capture, and the exterior branch is [[unlikely]]: inline, these rare
  // paths took registers from the per-event path (about 5% slower on the
  // bench_kernel presets, 4-core AVX-512 host). GCC ignores a
  // [[gnu::noinline]] in this position outside a template, so the
  // attribute is spelled the GNU way.
  const auto score_exit = [&](bool downward,
                              double weight) __attribute__((noinline)) {
    const double radius = util::fast_radius(photon.pos.x, photon.pos.y);
    if (downward) {
      score_exit_bottom(tally, radial, radius, weight);
      return false;
    }
    const bool detected =
        score_exit_top(tally, radial, detector, photon.pos, radius,
                       photon.optical_pathlength, photon.scatter_events,
                       weight);
    if (detected && path_grid != nullptr) recorder.commit(*path_grid);
    return detected;
  };
  note_vertex(photon.pos);

  if (!enter_tissue(photon, medium, tally)) {
    note_final_state();
    return;
  }

  double s_left = 0.0;  // dimensionless step remaining across boundaries
  std::uint64_t interactions = 0;

  // Aliasing-proof local copies of loop-invariant config and of the
  // current layer's optics row (reloaded only on a layer change).
  const std::uint64_t max_inter = config_.max_interactions;
  const double roulette_threshold = config_.roulette.threshold;
  const bool classical = config_.boundary_model == BoundaryModel::kClassical;
  std::size_t layer = photon.layer;
  double lz0 = medium.z0(layer), lz1 = medium.z1(layer);
  double ln = medium.n(layer), lmut = medium.mut(layer);
  double lmua = medium.mua(layer), lg = medium.g(layer);

  while (photon.alive()) {
    if (++interactions > max_inter) {
      tally.add_lost(photon.weight);
      photon.fate = PhotonFate::kMaxStepsExceeded;
      break;
    }

    const double mut = lmut;
    if (s_left <= 0.0) s_left = -std::log(rng.uniform_open0());

    const bool downward = photon.dir.z > 0.0;
    const double z_target = downward ? lz1 : lz0;
    const double s_phys = mut > 0.0 ? s_left / mut : kInf;

    // Boundary-distance filter: |dir.z| <= 1, so the true distance to the
    // interface, (z_target - pos.z)/dir.z, is at least the signed z-gap
    // (dividing by a magnitude <= 1 can only move a correctly-rounded
    // quotient further from zero, never closer). When the gap alone
    // already exceeds s_phys, the interface is unreachable this step and
    // the division, max() and finiteness tests are skipped entirely; any
    // other case — including photons displaced an ulp outside their layer
    // — falls through to the exact reference expressions.
    const double dz = z_target - photon.pos.z;
    bool interact = downward ? dz > s_phys : dz < -s_phys;
    double d_boundary = kInf;
    if (!interact) {
      if (std::abs(photon.dir.z) > kDirEps) {
        d_boundary = std::max(0.0, (z_target - photon.pos.z) / photon.dir.z);
      }
      if (!std::isfinite(d_boundary) && !std::isfinite(s_phys)) {
        // Horizontal flight in a non-interacting medium: the photon can
        // never reach an interface or interact again.
        tally.add_lost(photon.weight);
        photon.fate = PhotonFate::kMaxStepsExceeded;
        break;
      }
      interact = !(d_boundary <= s_phys);
    }

    if (!interact) {
      // --- interface crossing ----------------------------------------------
      photon.pos += photon.dir * d_boundary;
      photon.optical_pathlength += d_boundary * ln;
      photon.max_depth = std::max(photon.max_depth, photon.pos.z);
      note_vertex(photon.pos);
      s_left -= d_boundary * mut;
      if (s_left < 0.0) s_left = 0.0;

      const int d = downward ? 1 : 0;
      const FresnelResult fr =
          interface_fresnel(medium, layer, d, ln, std::abs(photon.dir.z));
      if (fr.total_internal) {  // "if (photon angle > critical angle)"
        photon.dir.z = -photon.dir.z;
      } else if (medium.exterior(layer, d)) [[unlikely]] {
        bool leaves = false;
        bool detected = false;
        if (classical) {
          // Deterministic partial transmission: (1-R)·W escapes now, R·W
          // keeps propagating inside. A packet that keeps weight survives
          // a detection event and may be detected again later; each
          // partial escape has already been tallied.
          const double transmitted = photon.weight * (1.0 - fr.reflectance);
          if (transmitted > 0.0) {
            detected = score_exit(downward, transmitted);
            photon.weight -= transmitted;
          }
          photon.dir.z = -photon.dir.z;
          leaves = photon.weight <= 0.0;
        } else if (rng.uniform() < fr.reflectance) {
          // Probabilistic: the whole packet either reflects ...
          photon.dir.z = -photon.dir.z;
        } else {
          // ... or leaves ("save path and end"), detected or not.
          detected = score_exit(downward, photon.weight);
          leaves = true;
        }
        if (leaves) {
          photon.fate = detected   ? PhotonFate::kDetected
                        : downward ? PhotonFate::kTransmitted
                                   : PhotonFate::kReflectedDiffuse;
          break;
        }
      } else {
        // Interior interface between two tissue layers. Reflection is
        // sampled probabilistically in both boundary models (a
        // single-packet tracker cannot fork into two continuing packets).
        if (rng.uniform() < fr.reflectance) {
          photon.dir.z = -photon.dir.z;
        } else {
          layer = refract(photon.dir, medium, layer, d, fr.cos_transmit);
          photon.layer = layer;
          lz0 = medium.z0(layer);
          lz1 = medium.z1(layer);
          ln = medium.n(layer);
          lmut = medium.mut(layer);
          lmua = medium.mua(layer);
          lg = medium.g(layer);
        }
      }
    } else {
      // --- interaction site -------------------------------------------------
      photon.pos += photon.dir * s_phys;
      photon.optical_pathlength += s_phys * ln;
      photon.max_depth = std::max(photon.max_depth, photon.pos.z);
      note_vertex(photon.pos);
      s_left = 0.0;

      // "update absorption and photon weight" — deposit W·µa/µt here.
      const double dw = photon.weight * lmua / mut;
      photon.weight -= dw;
      tally.add_absorption(layer, dw);
      if (fluence != nullptr) fluence->deposit(photon.pos, dw);
      if (radial_scorer) {
        radial_scorer->absorption(
            util::fast_radius(photon.pos.x, photon.pos.y), photon.pos.z, dw);
      }
      if (path_grid != nullptr) {
        // Unit deposits: the path grid counts *visit frequency* (the
        // paper's "most common paths taken by the photons"), so every
        // detected path contributes uniformly along its length instead of
        // being biased toward its high-weight beginning.
        recorder.record(*path_grid, photon.pos, 1.0);
      }

      photon.dir = deflect(photon.dir, sample_hg_cosine(lg, rng), rng);
      ++photon.scatter_events;
    }

    // "if (weight too small) survive roulette" — applies after either
    // branch: classical boundary splitting also erodes the weight. (Any
    // photon reaching this point is alive: every terminal outcome above
    // breaks out of the loop first.)
    if (photon.weight < roulette_threshold) [[unlikely]] {
      const double after = survive_roulette(photon.weight, config_.roulette,
                                            rng.uniform(), tally);
      if (after == 0.0) {
        photon.fate = PhotonFate::kAbsorbed;
        break;
      }
      photon.weight = after;
    }
  }

  tally.record_max_depth(photon.max_depth, 1.0);
  note_final_state();
  stats.interactions += interactions;
  if (photon.fate == PhotonFate::kAbsorbed) ++stats.roulette_terminations;
  if (path_grid != nullptr && config_.record_all_paths &&
      photon.fate != PhotonFate::kDetected) {
    recorder.commit(*path_grid);
  }
}

}  // namespace phodis::mc
