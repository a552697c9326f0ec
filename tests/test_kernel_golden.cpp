// Golden bitwise-regression guard for the compiled kernel hot path.
//
// The recorded hashes pin the kernel's serialized tally bytes — every weight
// total, histogram bin, grid voxel — at a fixed seed, across the photon
// loop's features: both boundary models, each per-interaction grid (fluence,
// radial, path) alone and in combination, the detector, record_all_paths, a
// layered head, an oblique source and the benchmark's grey-matter server
// plan. Earlier documented re-records moved the radial scorer from
// std::hypot to util::fast_radius and compiled the loop once instead of once
// per grid combination. All hashes were last re-recorded when the scalar
// scatter took the packet loop's azimuth and rotation operators
// (mc::sincos_2pi, mc::rotate): an intentional last-bits change in which no
// bin or photon fate moved, only the max-depth histogram's moments and,
// under classical splitting, a few weight totals, by at most a few tens of
// ulps.
//
// If a future "optimization" changes any of these hashes, it changed the
// physics stream: same-seed reproducibility across the distributed
// platform is broken, and the change must either be reverted or be an
// intentional, documented re-record like the ones above.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/app.hpp"
#include "core/spec.hpp"
#include "exec/parallel.hpp"
#include "exec/threadpool.hpp"
#include "mc/kernel.hpp"
#include "mc/presets.hpp"
#include "util/rng.hpp"

namespace {

using namespace phodis;

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t run_hash(const mc::KernelConfig& config, std::uint64_t photons,
                       std::uint64_t seed = 42) {
  const mc::Kernel kernel(config);
  mc::SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(seed);
  kernel.run(photons, rng, tally);
  return fnv1a64(tally.to_bytes());
}

mc::KernelConfig two_layer_config() {
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  return config;
}

// --- serial goldens: one per loop feature -----------------------------------

TEST(KernelGolden, TwoLayerProbabilistic) {
  EXPECT_EQ(run_hash(two_layer_config(), 10'000), 0xD2601B0E831DF46BULL);
}

TEST(KernelGolden, TwoLayerClassical) {
  mc::KernelConfig config = two_layer_config();
  config.boundary_model = mc::BoundaryModel::kClassical;
  EXPECT_EQ(run_hash(config, 10'000), 0x85EAD242DDDA497FULL);
}

TEST(KernelGolden, TwoLayerFluenceGrid) {
  mc::KernelConfig config = two_layer_config();
  config.tally.enable_fluence_grid = true;
  config.tally.fluence_spec = mc::GridSpec::cube(40, 20.0, 40.0);
  EXPECT_EQ(run_hash(config, 5'000), 0x293A30B2943BF8E4ULL);
}

TEST(KernelGolden, TwoLayerDetectorAndPathGrid) {
  mc::KernelConfig config = two_layer_config();
  config.detector = mc::DetectorSpec{};  // 30 mm separation, 2.5 mm radius
  config.tally.enable_path_grid = true;
  config.tally.path_spec = mc::GridSpec::cube(40, 40.0, 40.0);
  EXPECT_EQ(run_hash(config, 5'000), 0x2B64A66FF55DFC70ULL);
}

TEST(KernelGolden, TwoLayerRadial) {
  mc::KernelConfig config = two_layer_config();
  config.tally.enable_radial = true;
  EXPECT_EQ(run_hash(config, 10'000), 0x8D8F20390344069EULL);
}

// --- feature combinations: several per-interaction deposits at once ---------

TEST(KernelGolden, TwoLayerFluenceAndRadial) {
  mc::KernelConfig config = two_layer_config();
  config.tally.enable_fluence_grid = true;
  config.tally.fluence_spec = mc::GridSpec::cube(40, 20.0, 40.0);
  config.tally.enable_radial = true;
  EXPECT_EQ(run_hash(config, 3'000), 0x9F6F0CC54DAB5E4AULL);
}

TEST(KernelGolden, TwoLayerRadialDetectorAndPathGrid) {
  mc::KernelConfig config = two_layer_config();
  config.detector = mc::DetectorSpec{};
  config.tally.enable_radial = true;
  config.tally.enable_path_grid = true;
  config.tally.path_spec = mc::GridSpec::cube(40, 40.0, 40.0);
  EXPECT_EQ(run_hash(config, 3'000), 0x5F3BF6FBB936B1E8ULL);
}

// Fig. 4's all-paths picture: every grid, and the path grid takes every
// photon's path, detected or not.
TEST(KernelGolden, TwoLayerAllGridsDetectorRecordAllPaths) {
  mc::KernelConfig config = two_layer_config();
  config.detector = mc::DetectorSpec{};
  config.tally.enable_fluence_grid = true;
  config.tally.fluence_spec = mc::GridSpec::cube(40, 20.0, 40.0);
  config.tally.enable_radial = true;
  config.tally.enable_path_grid = true;
  config.tally.path_spec = mc::GridSpec::cube(40, 40.0, 40.0);
  config.record_all_paths = true;
  EXPECT_EQ(run_hash(config, 3'000), 0x0B0D8C52074F5051ULL);
}

TEST(KernelGolden, HeadModelProbabilistic) {
  mc::KernelConfig config;
  config.medium = mc::adult_head_model();
  EXPECT_EQ(run_hash(config, 2'000), 0xDD8EAC21C8EF6843ULL);
}

TEST(KernelGolden, WhiteMatterDivergingGaussianSource) {
  mc::KernelConfig config;
  config.medium = mc::homogeneous_white_matter();
  config.source.type = mc::SourceType::kGaussian;
  config.source.radius_mm = 1.0;
  config.source.half_angle_deg = 15.0;  // oblique entry refraction
  EXPECT_EQ(run_hash(config, 5'000), 0x48704649EBB96982ULL);
}

// The loop server_default and fine_chunk run: phodis_server's grey-matter
// medium and default tally, two 500-photon tasks through the app's plan.
TEST(KernelGolden, GreyMatterServerPlan) {
  core::SimulationSpec spec;
  spec.kernel.medium = mc::homogeneous_grey_matter();
  spec.photons = 1'000;
  spec.seed = 42;
  const core::MonteCarloApp app(spec);
  EXPECT_EQ(fnv1a64(app.run_parallel(1, 500).to_bytes()),
            0xD600728B06989477ULL);
}

// --- sharded goldens: the parallel plan at 1/2/4/8 threads ------------------

TEST(KernelGolden, ShardPlanMatchesRecordedHashAtEveryThreadCount) {
  const mc::Kernel kernel(two_layer_config());

  const exec::ParallelKernelRunner serial_runner(kernel, nullptr, 4096);
  const std::vector<std::uint8_t> serial_bytes =
      serial_runner.run(10'000, 42, 0).to_bytes();
  EXPECT_EQ(fnv1a64(serial_bytes), 0x59200E0D369C1792ULL);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    const exec::ParallelKernelRunner runner(kernel, &pool, 4096);
    EXPECT_EQ(runner.run(10'000, 42, 0).to_bytes(), serial_bytes)
        << "thread count " << threads;
  }
}

TEST(KernelGolden, AppRunParallelEqualsRunSerial) {
  core::SimulationSpec spec;
  spec.kernel = two_layer_config();
  spec.photons = 10'000;
  spec.seed = 42;
  const core::MonteCarloApp app(spec);
  const std::vector<std::uint8_t> serial =
      app.run_serial(/*chunk_photons=*/2'500).to_bytes();
  EXPECT_EQ(app.run_parallel(4, 2'500).to_bytes(), serial);
  EXPECT_EQ(app.run_parallel(8, 2'500).to_bytes(), serial);
}

}  // namespace
