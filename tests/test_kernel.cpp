// Behavioural tests of the Monte Carlo kernel: configuration validation,
// weight conservation, detection, gating, tracing, boundary models.
#include <gtest/gtest.h>

#include <cmath>

#include "mc/kernel.hpp"
#include "mc/presets.hpp"

namespace phodis::mc {
namespace {

OpticalProperties tissue_like() {
  OpticalProperties p;
  p.mua = 0.02;
  p.mus = 10.0;
  p.g = 0.9;
  p.n = 1.4;
  return p;
}

KernelConfig semi_infinite_config(double n_tissue = 1.4) {
  OpticalProperties p = tissue_like();
  p.n = n_tissue;
  KernelConfig config;
  config.medium = homogeneous_semi_infinite(p, 1.0);
  return config;
}

// ---------- configuration ----------------------------------------------------

TEST(KernelConfig, ParseBoundaryModel) {
  EXPECT_EQ(parse_boundary_model("probabilistic"),
            BoundaryModel::kProbabilistic);
  EXPECT_EQ(parse_boundary_model("Classical"), BoundaryModel::kClassical);
  EXPECT_THROW(parse_boundary_model("quantum"), std::invalid_argument);
  EXPECT_EQ(to_string(BoundaryModel::kClassical), "classical");
}

TEST(KernelConfig, ValidateCatchesBadSettings) {
  KernelConfig config = semi_infinite_config();
  config.max_interactions = 0;
  EXPECT_THROW(Kernel{config}, std::invalid_argument);

  config = semi_infinite_config();
  config.record_all_paths = true;  // without a path grid
  EXPECT_THROW(Kernel{config}, std::invalid_argument);

  config = semi_infinite_config();
  config.roulette.threshold = 2.0;
  EXPECT_THROW(Kernel{config}, std::invalid_argument);
}

TEST(KernelConfig, TallyLayerCountFollowsMedium) {
  KernelConfig config;
  config.medium = adult_head_model();
  const Kernel kernel(config);
  EXPECT_EQ(kernel.make_tally().layer_absorption().size(), 5u);
}

// ---------- conservation -----------------------------------------------------

struct ConservationCase {
  const char* name;
  double n_tissue;
  BoundaryModel model;
};

class ConservationSweep
    : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(ConservationSweep, WeightLedgerBalances) {
  const ConservationCase& c = GetParam();
  KernelConfig config = semi_infinite_config(c.n_tissue);
  config.boundary_model = c.model;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(17);
  kernel.run(20000, rng, tally);
  EXPECT_EQ(tally.photons_launched(), 20000u);
  // Ledger closes to floating-point accumulation error.
  EXPECT_LT(tally.weight_conservation_error(), 1e-6 * 20000);
  // All fractions are probabilities.
  for (double f : {tally.specular_reflectance(), tally.diffuse_reflectance(),
                   tally.transmittance(), tally.absorbed_fraction(),
                   tally.lost_fraction()}) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MediaAndModels, ConservationSweep,
    ::testing::Values(
        ConservationCase{"matched_prob", 1.0, BoundaryModel::kProbabilistic},
        ConservationCase{"matched_classical", 1.0, BoundaryModel::kClassical},
        ConservationCase{"mismatched_prob", 1.4,
                         BoundaryModel::kProbabilistic},
        ConservationCase{"mismatched_classical", 1.4,
                         BoundaryModel::kClassical}),
    [](const ::testing::TestParamInfo<ConservationCase>& info) {
      return info.param.name;
    });

TEST(Kernel, LayeredHeadConservation) {
  KernelConfig config;
  config.medium = adult_head_model();
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(11);
  kernel.run(10000, rng, tally);
  EXPECT_LT(tally.weight_conservation_error(), 1e-6 * 10000);
  // Everything that entered is somewhere.
  const double sum = tally.specular_reflectance() +
                     tally.diffuse_reflectance() + tally.transmittance() +
                     tally.absorbed_fraction() + tally.lost_fraction();
  EXPECT_NEAR(sum, 1.0, 1e-2);  // roulette adds sampling noise only
}

// ---------- deterministic degenerate media ----------------------------------

TEST(Kernel, PureAbsorberFollowsBeerLambert) {
  // No scattering, matched boundaries: transmittance through a slab of
  // thickness d is exactly exp(-mua d); nothing reflects diffusely.
  OpticalProperties p;
  p.mua = 0.5;
  p.mus = 0.0;
  p.g = 0.0;
  p.n = 1.0;
  KernelConfig config;
  config.medium = homogeneous_slab(p, 4.0, 1.0);
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(3);
  kernel.run(50000, rng, tally);
  EXPECT_NEAR(tally.transmittance(), std::exp(-0.5 * 4.0), 5e-3);
  EXPECT_DOUBLE_EQ(tally.diffuse_reflectance(), 0.0);
  EXPECT_DOUBLE_EQ(tally.specular_reflectance(), 0.0);
  EXPECT_NEAR(tally.absorbed_fraction(), 1.0 - std::exp(-2.0), 5e-3);
}

TEST(Kernel, SpecularReflectanceAtLaunchMatchesFresnel) {
  KernelConfig config = semi_infinite_config(1.5);
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(5);
  kernel.run(1000, rng, tally);
  EXPECT_NEAR(tally.specular_reflectance(), 0.04, 1e-12);
}

TEST(Kernel, MaxInteractionsSafetyValve) {
  // A lossless scattering medium would bounce forever; the valve reports
  // the stuck weight as lost instead of hanging.
  OpticalProperties p;
  p.mua = 0.0;
  p.mus = 10.0;
  p.g = 0.0;
  p.n = 1.0;
  KernelConfig config;
  config.medium = homogeneous_semi_infinite(p, 1.0);
  config.max_interactions = 50;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(6);
  kernel.run(2000, rng, tally);
  EXPECT_GT(tally.lost_fraction(), 0.0);
  EXPECT_LT(tally.weight_conservation_error(), 1e-9 * 2000);
}

// ---------- detection & gating -----------------------------------------------

KernelConfig detection_config() {
  // A light diffusive medium (µs' = 1/mm, µa = 0.01/mm, matched boundary):
  // detections at a 10 mm separation are plentiful, so these behavioural
  // tests stay fast. (White matter's µt = 91/mm would need paper-scale
  // photon counts for the same statistics.)
  OpticalProperties p;
  p.mua = 0.01;
  p.mus = 10.0;
  p.g = 0.9;
  p.n = 1.0;
  KernelConfig config;
  config.medium = homogeneous_semi_infinite(p, 1.0);
  DetectorSpec detector;
  detector.separation_mm = 10.0;
  detector.radius_mm = 2.0;
  config.detector = detector;
  return config;
}

TEST(Kernel, DetectsSomePhotons) {
  const Kernel kernel(detection_config());
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(7);
  kernel.run(50000, rng, tally);
  EXPECT_GT(tally.photons_detected(), 0u);
  EXPECT_GT(tally.mean_detected_pathlength(), 10.0);  // longer than SD line
  EXPECT_LE(tally.detected_fraction(), tally.diffuse_reflectance());
}

TEST(Kernel, DetectedPathlengthExceedsGeometricDistance) {
  // The differential-pathlength property: scattering makes detected paths
  // much longer than the straight-line separation.
  const Kernel kernel(detection_config());
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(8);
  kernel.run(50000, rng, tally);
  EXPECT_GT(tally.mean_detected_pathlength(), 2.0 * 10.0);
}

TEST(Kernel, PathlengthGateReducesDetections) {
  KernelConfig open_config = detection_config();
  KernelConfig gated_config = detection_config();
  // Mean detected pathlength here is ~DPF * 10mm ~ 85mm; an 80mm gate
  // rejects the long-path tail but keeps plenty of detections.
  gated_config.detector->gate.min_mm = 0.0;
  gated_config.detector->gate.max_mm = 80.0;

  util::Xoshiro256pp rng_a(9);
  util::Xoshiro256pp rng_b(9);
  const Kernel open_kernel(open_config);
  const Kernel gated_kernel(gated_config);
  SimulationTally open_tally = open_kernel.make_tally();
  SimulationTally gated_tally = gated_kernel.make_tally();
  open_kernel.run(50000, rng_a, open_tally);
  gated_kernel.run(50000, rng_b, gated_tally);

  EXPECT_LT(gated_tally.photons_detected(), open_tally.photons_detected());
  EXPECT_GT(gated_tally.photons_detected(), 0u);
  // Same seed, same physics: total reflectance unchanged by gating.
  EXPECT_DOUBLE_EQ(gated_tally.diffuse_reflectance(),
                   open_tally.diffuse_reflectance());
  // Gated mean pathlength is inside the gate.
  EXPECT_LE(gated_tally.mean_detected_pathlength(), 80.0);
}

TEST(Kernel, GateWindowSelectsPathlengthBand) {
  KernelConfig config = detection_config();
  config.detector->gate.min_mm = 50.0;
  config.detector->gate.max_mm = 100.0;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(10);
  kernel.run(100000, rng, tally);
  if (tally.photons_detected() > 0) {
    EXPECT_GE(tally.mean_detected_pathlength(), 50.0);
    EXPECT_LE(tally.mean_detected_pathlength(), 100.0);
  }
}

TEST(Kernel, DetectorFurtherAwaySeesFewerPhotons) {
  auto detected_at = [](double separation) {
    KernelConfig config = detection_config();
    config.detector->separation_mm = separation;
    const Kernel kernel(config);
    SimulationTally tally = kernel.make_tally();
    util::Xoshiro256pp rng(12);
    kernel.run(80000, rng, tally);
    return tally.detected_fraction();
  };
  const double near = detected_at(5.0);
  const double mid = detected_at(15.0);
  const double far = detected_at(30.0);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
}

// ---------- path grid --------------------------------------------------------

TEST(Kernel, PathGridOnlyFillsOnDetection) {
  KernelConfig config = detection_config();
  config.tally.enable_path_grid = true;
  config.tally.path_spec = GridSpec::cube(20, 15.0, 20.0);
  // Make detection impossible: gate window nothing can satisfy.
  config.detector->gate.min_mm = 1e7;
  config.detector->gate.max_mm = 1e8;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(13);
  kernel.run(5000, rng, tally);
  EXPECT_EQ(tally.photons_detected(), 0u);
  EXPECT_DOUBLE_EQ(tally.path_grid()->total(), 0.0);
}

TEST(Kernel, PathGridFillsWhenDetecting) {
  KernelConfig config = detection_config();
  config.tally.enable_path_grid = true;
  config.tally.path_spec = GridSpec::cube(20, 15.0, 20.0);
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(14);
  kernel.run(50000, rng, tally);
  ASSERT_GT(tally.photons_detected(), 0u);
  EXPECT_GT(tally.path_grid()->total(), 0.0);
}

TEST(Kernel, RecordAllPathsFillsWithoutDetector) {
  KernelConfig config;
  config.medium = homogeneous_white_matter();
  config.tally.enable_path_grid = true;
  config.tally.path_spec = GridSpec::cube(20, 15.0, 20.0);
  config.record_all_paths = true;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(15);
  kernel.run(2000, rng, tally);
  EXPECT_GT(tally.path_grid()->total(), 0.0);
}

TEST(Kernel, FluenceGridAccumulatesAbsorption) {
  KernelConfig config;
  config.medium = homogeneous_white_matter();
  config.tally.enable_fluence_grid = true;
  config.tally.fluence_spec = GridSpec::cube(20, 15.0, 20.0);
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(16);
  kernel.run(5000, rng, tally);
  // The grid holds (most of) the absorbed weight: deposits outside the
  // window are the only loss.
  EXPECT_GT(tally.fluence_grid()->total(), 0.0);
  EXPECT_LE(tally.fluence_grid()->total(),
            tally.absorbed_fraction() * 5000 + 1e-9);
}

// ---------- boundary models --------------------------------------------------

TEST(Kernel, BoundaryModelsAgreeOnAverages) {
  KernelConfig prob_config = semi_infinite_config(1.4);
  KernelConfig classical_config = semi_infinite_config(1.4);
  classical_config.boundary_model = BoundaryModel::kClassical;

  const Kernel prob_kernel(prob_config);
  const Kernel classical_kernel(classical_config);
  SimulationTally prob_tally = prob_kernel.make_tally();
  SimulationTally classical_tally = classical_kernel.make_tally();
  util::Xoshiro256pp rng_a(21);
  util::Xoshiro256pp rng_b(22);
  prob_kernel.run(60000, rng_a, prob_tally);
  classical_kernel.run(60000, rng_b, classical_tally);

  // Both are unbiased estimators of the same physical reflectance.
  EXPECT_NEAR(prob_tally.diffuse_reflectance(),
              classical_tally.diffuse_reflectance(), 0.01);
  EXPECT_NEAR(prob_tally.absorbed_fraction(),
              classical_tally.absorbed_fraction(), 0.01);
}

// ---------- tracing ----------------------------------------------------------

TEST(Kernel, TraceProducesVertices) {
  const Kernel kernel(semi_infinite_config(1.4));
  util::Xoshiro256pp rng(23);
  const PhotonTrace trace = kernel.trace(rng);
  EXPECT_GE(trace.vertices.size(), 2u);
  // First vertex is the launch point on the surface.
  EXPECT_DOUBLE_EQ(trace.vertices.front().z, 0.0);
  // All vertices stay inside the tissue half-space (small fp slack).
  for (const util::Vec3& v : trace.vertices) {
    EXPECT_GE(v.z, -1e-9);
  }
}

TEST(Kernel, TraceRespectsVertexCap) {
  const Kernel kernel(semi_infinite_config(1.4));
  util::Xoshiro256pp rng(24);
  const PhotonTrace trace = kernel.trace(rng, 5);
  EXPECT_LE(trace.vertices.size(), 5u);
}

TEST(Kernel, TraceFollowsTheSamePhotonAsRun) {
  // Trace capture is a runtime switch of the same loop, so tracing a
  // photon must change no draw: trace() and run(1) from equal seeds end
  // on equal RNG states and agree on whether the photon was detected.
  // The classical model runs index-matched so every exit is whole (with a
  // mismatch, a partial escape can be detected and the photon live on).
  for (const BoundaryModel model :
       {BoundaryModel::kProbabilistic, BoundaryModel::kClassical}) {
    KernelConfig config =
        semi_infinite_config(model == BoundaryModel::kClassical ? 1.0 : 1.4);
    config.boundary_model = model;
    DetectorSpec detector;
    detector.separation_mm = 0.0;
    detector.radius_mm = 5.0;
    config.detector = detector;
    const Kernel kernel(config);
    int detected = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      util::Xoshiro256pp rng_trace(seed);
      util::Xoshiro256pp rng_run(seed);
      const PhotonTrace trace = kernel.trace(rng_trace);
      SimulationTally tally = kernel.make_tally();
      kernel.run(1, rng_run, tally);
      ASSERT_EQ(rng_trace.state(), rng_run.state())
          << to_string(model) << " seed " << seed;
      ASSERT_EQ(trace.fate == PhotonFate::kDetected,
                tally.photons_detected() == 1)
          << to_string(model) << " seed " << seed;
      detected += tally.photons_detected() == 1 ? 1 : 0;
    }
    // The detector sits over the source: a real share of photons hits it.
    EXPECT_GT(detected, 30) << to_string(model);
  }
}

// ---------- determinism ------------------------------------------------------

TEST(Kernel, RunsAreSeedDeterministic) {
  const Kernel kernel(detection_config());
  SimulationTally a = kernel.make_tally();
  SimulationTally b = kernel.make_tally();
  util::Xoshiro256pp rng_a(77);
  util::Xoshiro256pp rng_b(77);
  kernel.run(20000, rng_a, a);
  kernel.run(20000, rng_b, b);
  EXPECT_DOUBLE_EQ(a.diffuse_reflectance(), b.diffuse_reflectance());
  EXPECT_DOUBLE_EQ(a.absorbed_fraction(), b.absorbed_fraction());
  EXPECT_EQ(a.photons_detected(), b.photons_detected());
  EXPECT_DOUBLE_EQ(a.mean_detected_pathlength(),
                   b.mean_detected_pathlength());
}

TEST(Kernel, DepthHistogramTracksMaxDepth) {
  const Kernel kernel(semi_infinite_config(1.4));
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(25);
  kernel.run(5000, rng, tally);
  // One max-depth sample per launched photon.
  EXPECT_NEAR(tally.depth_histogram().total(), 5000.0, 1e-9);
  EXPECT_GT(tally.depth_histogram().mean(), 0.0);
}

}  // namespace
}  // namespace phodis::mc
