// Golden bitwise-regression guard for the compiled kernel hot path.
//
// The recorded hashes pin the kernel's serialized tally bytes — every
// weight total, histogram bin, grid voxel — at a fixed seed, across the
// photon loop's features: both boundary models, each per-interaction
// grid (fluence, radial, path) alone and in combination, the detector,
// record_all_paths, a layered head and an oblique source. They were
// recorded from the pre-compiled-path reference kernel, except
// two_layer_radial, recorded when the radial scorer moved from std::hypot
// to util::fast_radius (an intentional last-ulp change; physics equality
// is covered by test_radial's tolerance checks), and the three
// feature-combination cases, recorded just before the loop, until then
// compiled once per grid combination, was compiled as one.
//
// If a future "optimization" changes any of these hashes, it changed the
// physics stream: same-seed reproducibility across the distributed
// platform is broken, and the change must either be reverted or be an
// intentional, documented re-record (like the fast_radius one above).
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
  EXPECT_EQ(run_hash(two_layer_config(), 10'000), 0x1CA835547D4A3A52ULL);
}

TEST(KernelGolden, TwoLayerClassical) {
  mc::KernelConfig config = two_layer_config();
  config.boundary_model = mc::BoundaryModel::kClassical;
  EXPECT_EQ(run_hash(config, 10'000), 0x8029075191C7F79DULL);
}

TEST(KernelGolden, TwoLayerFluenceGrid) {
  mc::KernelConfig config = two_layer_config();
  config.tally.enable_fluence_grid = true;
  config.tally.fluence_spec = mc::GridSpec::cube(40, 20.0, 40.0);
  EXPECT_EQ(run_hash(config, 5'000), 0x52C9ED852FCB5C0EULL);
}

TEST(KernelGolden, TwoLayerDetectorAndPathGrid) {
  mc::KernelConfig config = two_layer_config();
  config.detector = mc::DetectorSpec{};  // 30 mm separation, 2.5 mm radius
  config.tally.enable_path_grid = true;
  config.tally.path_spec = mc::GridSpec::cube(40, 40.0, 40.0);
  EXPECT_EQ(run_hash(config, 5'000), 0xA8740AC69D24F06AULL);
}

TEST(KernelGolden, TwoLayerRadial) {
  mc::KernelConfig config = two_layer_config();
  config.tally.enable_radial = true;
  EXPECT_EQ(run_hash(config, 10'000), 0xEE0ECC036420B21FULL);
}

// --- feature combinations: several per-interaction deposits at once ---------

TEST(KernelGolden, TwoLayerFluenceAndRadial) {
  mc::KernelConfig config = two_layer_config();
  config.tally.enable_fluence_grid = true;
  config.tally.fluence_spec = mc::GridSpec::cube(40, 20.0, 40.0);
  config.tally.enable_radial = true;
  EXPECT_EQ(run_hash(config, 3'000), 0x435561D488CE805FULL);
}

TEST(KernelGolden, TwoLayerRadialDetectorAndPathGrid) {
  mc::KernelConfig config = two_layer_config();
  config.detector = mc::DetectorSpec{};
  config.tally.enable_radial = true;
  config.tally.enable_path_grid = true;
  config.tally.path_spec = mc::GridSpec::cube(40, 40.0, 40.0);
  EXPECT_EQ(run_hash(config, 3'000), 0xFAB378AAF3B4BBD1ULL);
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
  EXPECT_EQ(run_hash(config, 3'000), 0xF12801C025115E08ULL);
}

TEST(KernelGolden, HeadModelProbabilistic) {
  mc::KernelConfig config;
  config.medium = mc::adult_head_model();
  EXPECT_EQ(run_hash(config, 2'000), 0x2B3CE955E7458B92ULL);
}

TEST(KernelGolden, WhiteMatterDivergingGaussianSource) {
  mc::KernelConfig config;
  config.medium = mc::homogeneous_white_matter();
  config.source.type = mc::SourceType::kGaussian;
  config.source.radius_mm = 1.0;
  config.source.half_angle_deg = 15.0;  // oblique entry refraction
  EXPECT_EQ(run_hash(config, 5'000), 0x99798E883FB7AFA8ULL);
}

// --- sharded goldens: the parallel plan at 1/2/4/8 threads ------------------

TEST(KernelGolden, ShardPlanMatchesRecordedHashAtEveryThreadCount) {
  const mc::Kernel kernel(two_layer_config());

  const exec::ParallelKernelRunner serial_runner(kernel, nullptr, 4096);
  const std::vector<std::uint8_t> serial_bytes =
      serial_runner.run(10'000, 42, 0).to_bytes();
  EXPECT_EQ(fnv1a64(serial_bytes), 0x90D1E6BEE6A31A2DULL);

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
