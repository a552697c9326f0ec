// Tests for the voxel scoring grids, the path recorder, and the
// mergeable/serialisable simulation tally.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "mc/grid.hpp"
#include "mc/tally.hpp"

namespace phodis::mc {
namespace {

GridSpec small_grid() {
  GridSpec spec;
  spec.x_min = -5.0;
  spec.x_max = 5.0;
  spec.y_min = -5.0;
  spec.y_max = 5.0;
  spec.z_min = 0.0;
  spec.z_max = 10.0;
  spec.nx = spec.ny = spec.nz = 10;
  return spec;
}

// ---------- GridSpec ---------------------------------------------------------

TEST(GridSpec, ValidatesExtents) {
  GridSpec spec = small_grid();
  EXPECT_NO_THROW(spec.validate());
  spec.x_max = spec.x_min;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_grid();
  spec.nz = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(GridSpec, CubeFactory) {
  const GridSpec spec = GridSpec::cube(50, 25.0, 40.0);
  EXPECT_EQ(spec.nx, 50u);
  EXPECT_EQ(spec.ny, 50u);
  EXPECT_EQ(spec.nz, 50u);
  EXPECT_DOUBLE_EQ(spec.x_min, -25.0);
  EXPECT_DOUBLE_EQ(spec.z_max, 40.0);
  EXPECT_EQ(spec.voxel_count(), 125000u);
}

TEST(GridSpec, VoxelVolume) {
  const GridSpec spec = small_grid();  // 1mm x 1mm x 1mm voxels
  EXPECT_DOUBLE_EQ(spec.voxel_volume_mm3(), 1.0);
}

TEST(GridSpec, SerializeRoundTrip) {
  const GridSpec spec = small_grid();
  util::ByteWriter w;
  spec.serialize(w);
  util::ByteReader r(w.bytes());
  EXPECT_EQ(GridSpec::deserialize(r), spec);
}

TEST(GridSpec, RejectsAWrappingVoxelCount) {
  // 2^32 * 2^32 * 1 wraps to 0 in 64 bits; it must not pass as a small
  // grid, neither locally nor from a peer's bytes.
  GridSpec spec = small_grid();
  spec.nx = spec.ny = std::size_t{1} << 32;
  spec.nz = 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_THROW(VoxelGrid3D{spec}, std::invalid_argument);
  util::ByteWriter w;
  spec.serialize(w);
  util::ByteReader r(w.bytes());
  EXPECT_THROW(GridSpec::deserialize(r), std::invalid_argument);

  // The 2^31-voxel cap itself is exact (validated only, never allocated).
  spec.nx = std::size_t{1} << 16;
  spec.ny = std::size_t{1} << 15;
  EXPECT_NO_THROW(spec.validate());
  spec.nz = 2;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// ---------- VoxelGrid3D ------------------------------------------------------

TEST(VoxelGrid, IndexOfMapsPositions) {
  VoxelGrid3D grid(small_grid());
  // Center of the first voxel.
  auto idx = grid.index_of({-4.5, -4.5, 0.5});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 0u);
  // Outside on each axis.
  EXPECT_FALSE(grid.index_of({-5.1, 0, 5}).has_value());
  EXPECT_FALSE(grid.index_of({0, 5.0, 5}).has_value());  // hi edge exclusive
  EXPECT_FALSE(grid.index_of({0, 0, -0.1}).has_value());
  EXPECT_FALSE(grid.index_of({0, 0, 10.0}).has_value());
}

TEST(VoxelGrid, DepositAndReadBack) {
  VoxelGrid3D grid(small_grid());
  grid.deposit({0.5, 0.5, 0.5}, 2.5);
  grid.deposit({0.5, 0.5, 0.5}, 1.5);
  EXPECT_DOUBLE_EQ(grid.at(5, 5, 0), 4.0);
  EXPECT_DOUBLE_EQ(grid.total(), 4.0);
  EXPECT_DOUBLE_EQ(grid.max_value(), 4.0);
}

TEST(VoxelGrid, DepositOutsideIsIgnored) {
  VoxelGrid3D grid(small_grid());
  grid.deposit({100, 100, 100}, 1.0);
  EXPECT_DOUBLE_EQ(grid.total(), 0.0);
}

TEST(VoxelGrid, VoxelCenterInvertsIndex) {
  VoxelGrid3D grid(small_grid());
  for (std::size_t flat : {0u, 17u, 999u, 123u}) {
    const util::Vec3 c = grid.voxel_center(flat);
    const auto idx = grid.index_of(c);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, flat);
  }
}

TEST(VoxelGrid, MergeAddsAndChecksSpec) {
  VoxelGrid3D a(small_grid());
  VoxelGrid3D b(small_grid());
  a.deposit({0, 0, 1}, 1.0);
  b.deposit({0, 0, 1}, 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total(), 3.0);

  GridSpec other = small_grid();
  other.nx = 20;
  VoxelGrid3D c(other);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(VoxelGrid, AtBoundsChecks) {
  VoxelGrid3D grid(small_grid());
  EXPECT_THROW(grid.at(10, 0, 0), std::out_of_range);
  EXPECT_THROW(grid.at(0, 0, 10), std::out_of_range);
}

// ---------- PathRecorder -----------------------------------------------------

TEST(PathRecorder, CoalescesConsecutiveSameVoxel) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {0.1, 0.1, 0.1}, 1.0);
  rec.record(grid, {0.2, 0.2, 0.2}, 1.0);  // same voxel
  rec.record(grid, {2.0, 2.0, 2.0}, 1.0);  // different voxel
  EXPECT_EQ(rec.size(), 2u);
}

TEST(PathRecorder, CommitDepositsEverything) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {0.1, 0.1, 0.1}, 1.5);
  rec.record(grid, {2.0, 2.0, 2.0}, 2.5);
  rec.commit(grid);
  EXPECT_DOUBLE_EQ(grid.total(), 4.0);
}

TEST(PathRecorder, ClearDiscardsWithoutDeposit) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {0.1, 0.1, 0.1}, 1.0);
  rec.clear();
  EXPECT_TRUE(rec.empty());
  rec.commit(grid);
  EXPECT_DOUBLE_EQ(grid.total(), 0.0);
}

TEST(PathRecorder, IgnoresOutOfGridPositions) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {100, 0, 0}, 1.0);
  EXPECT_TRUE(rec.empty());
}

// ---------- SimulationTally --------------------------------------------------

TallyConfig tally_config(bool grids = false) {
  TallyConfig config;
  config.layer_count = 3;
  config.pathlength_bins = 50;
  config.pathlength_max_mm = 500.0;
  config.depth_bins = 20;
  config.depth_max_mm = 20.0;
  if (grids) {
    config.enable_fluence_grid = true;
    config.fluence_spec = small_grid();
    config.enable_path_grid = true;
    config.path_spec = small_grid();
  }
  return config;
}

TEST(Tally, RejectsZeroLayers) {
  TallyConfig config;
  config.layer_count = 0;
  EXPECT_THROW(SimulationTally{config}, std::invalid_argument);
}

TEST(Tally, FractionsNormaliseByLaunches) {
  SimulationTally tally(tally_config());
  for (int i = 0; i < 4; ++i) tally.count_launch();
  tally.add_specular(0.2);
  tally.add_diffuse_reflectance(1.0);
  tally.add_transmittance(0.8);
  tally.add_absorption(0, 0.5);
  tally.add_absorption(2, 1.5);
  EXPECT_DOUBLE_EQ(tally.specular_reflectance(), 0.05);
  EXPECT_DOUBLE_EQ(tally.diffuse_reflectance(), 0.25);
  EXPECT_DOUBLE_EQ(tally.transmittance(), 0.2);
  EXPECT_DOUBLE_EQ(tally.absorbed_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(tally.absorbed_weight(0), 0.5);
  EXPECT_DOUBLE_EQ(tally.absorbed_weight(1), 0.0);
  EXPECT_DOUBLE_EQ(tally.absorbed_weight(2), 1.5);
}

TEST(Tally, EmptyTallyHasZeroFractions) {
  SimulationTally tally(tally_config());
  EXPECT_DOUBLE_EQ(tally.diffuse_reflectance(), 0.0);
  EXPECT_DOUBLE_EQ(tally.mean_detected_pathlength(), 0.0);
  EXPECT_DOUBLE_EQ(tally.weight_conservation_error(), 0.0);
}

TEST(Tally, ConservationLedgerBalances) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.add_specular(0.1);
  tally.add_absorption(1, 0.3);
  tally.add_roulette_gain(0.05);
  tally.add_roulette_loss(0.02);
  // sinks must equal 1 + 0.05 - 0.02 = 1.03; so far sinks = 0.4.
  tally.add_diffuse_reflectance(0.63);
  EXPECT_NEAR(tally.weight_conservation_error(), 0.0, 1e-12);
}

TEST(Tally, ConservationLedgerDetectsImbalance) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.add_diffuse_reflectance(0.5);  // 0.5 missing
  EXPECT_NEAR(tally.weight_conservation_error(), 0.5, 1e-12);
}

TEST(Tally, DetectionStatistics) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.record_detection(0.5, 100.0, 30.0, 10);
  tally.record_detection(0.25, 200.0, 30.0, 20);
  EXPECT_EQ(tally.photons_detected(), 2u);
  EXPECT_DOUBLE_EQ(tally.total_detected_weight(), 0.75);
  // Weighted mean: (0.5*100 + 0.25*200)/0.75
  EXPECT_NEAR(tally.mean_detected_pathlength(), 100.0 / 0.75, 1e-9);
  EXPECT_NEAR(tally.mean_detected_scatter_events(), (5.0 + 5.0) / 0.75,
              1e-9);
  EXPECT_DOUBLE_EQ(tally.pathlength_histogram().total_in_range(), 0.75);
}

TEST(Tally, MergeAccumulatesEverything) {
  SimulationTally a(tally_config(true));
  SimulationTally b(tally_config(true));
  a.count_launch();
  b.count_launch();
  a.add_diffuse_reflectance(0.5);
  b.add_diffuse_reflectance(0.25);
  a.record_detection(0.5, 100.0, 30.0, 5);
  b.record_detection(0.25, 300.0, 30.0, 9);
  a.fluence_grid()->deposit({0, 0, 1}, 1.0);
  b.fluence_grid()->deposit({0, 0, 1}, 2.0);
  b.path_grid()->deposit({1, 1, 1}, 4.0);
  a.record_max_depth(3.0, 1.0);
  b.record_max_depth(7.0, 1.0);

  a.merge(b);
  EXPECT_EQ(a.photons_launched(), 2u);
  EXPECT_EQ(a.photons_detected(), 2u);
  EXPECT_DOUBLE_EQ(a.diffuse_reflectance(), 0.375);
  EXPECT_DOUBLE_EQ(a.fluence_grid()->total(), 3.0);
  EXPECT_DOUBLE_EQ(a.path_grid()->total(), 4.0);
  EXPECT_DOUBLE_EQ(a.depth_histogram().total_in_range(), 2.0);
}

TEST(Tally, MergeRejectsConfigMismatch) {
  SimulationTally a(tally_config());
  TallyConfig other = tally_config();
  other.layer_count = 5;
  SimulationTally b(other);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Tally, SerializeRoundTripScalarsOnly) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.count_launch();
  tally.add_specular(0.08);
  tally.add_diffuse_reflectance(0.9);
  tally.add_absorption(1, 0.7);
  tally.add_roulette_gain(0.01);
  tally.add_roulette_loss(0.02);
  tally.record_detection(0.4, 120.0, 30.0, 7);
  tally.record_max_depth(5.0, 1.0);

  util::ByteWriter w;
  tally.serialize(w);
  util::ByteReader r(w.bytes());
  SimulationTally back = SimulationTally::deserialize(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(back.photons_launched(), tally.photons_launched());
  EXPECT_DOUBLE_EQ(back.specular_reflectance(), tally.specular_reflectance());
  EXPECT_DOUBLE_EQ(back.diffuse_reflectance(), tally.diffuse_reflectance());
  EXPECT_DOUBLE_EQ(back.absorbed_weight(1), tally.absorbed_weight(1));
  EXPECT_DOUBLE_EQ(back.mean_detected_pathlength(),
                   tally.mean_detected_pathlength());
  EXPECT_NEAR(back.weight_conservation_error(),
              tally.weight_conservation_error(), 1e-12);
}

TEST(Tally, SerializeRoundTripWithGrids) {
  SimulationTally tally(tally_config(true));
  tally.count_launch();
  tally.fluence_grid()->deposit({0.5, 0.5, 0.5}, 3.0);
  tally.path_grid()->deposit({-1, -1, 2}, 7.0);

  util::ByteWriter w;
  tally.serialize(w);
  util::ByteReader r(w.bytes());
  SimulationTally back = SimulationTally::deserialize(r);

  ASSERT_NE(back.fluence_grid(), nullptr);
  ASSERT_NE(back.path_grid(), nullptr);
  EXPECT_DOUBLE_EQ(back.fluence_grid()->total(), 3.0);
  EXPECT_DOUBLE_EQ(back.path_grid()->total(), 7.0);
  EXPECT_DOUBLE_EQ(back.fluence_grid()->at(5, 5, 0), 3.0);
}

TEST(Tally, DeserializeRejectsCorruptPayload) {
  SimulationTally tally(tally_config());
  util::ByteWriter w;
  tally.serialize(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() / 2);  // truncate
  util::ByteReader r(bytes);
  EXPECT_THROW(SimulationTally::deserialize(r), std::out_of_range);
}

/// A short frame whose tally config claims `patch(config)`'s sizes:
/// the config's bytes plus one spare double, ~230 bytes in all.
std::vector<std::uint8_t> hostile_frame(
    const std::function<void(TallyConfig&)>& patch) {
  TallyConfig config = tally_config();
  patch(config);
  util::ByteWriter w;
  config.serialize(w);
  w.f64(0.0);
  return w.take();
}

TEST(Tally, DeserializeBoundsPeerSizesByThePayload) {
  // Each claimed size needs that many doubles still in the frame; the
  // decoder must refuse before allocating (not throw bad_alloc after).
  const auto expect_rejected = [](const std::vector<std::uint8_t>& bytes) {
    util::ByteReader r(bytes);
    EXPECT_THROW((void)SimulationTally::deserialize(r), std::out_of_range);
  };
  const std::size_t huge = std::size_t{1} << 40;
  const std::vector<std::uint8_t> layers =
      hostile_frame([&](TallyConfig& c) { c.layer_count = huge; });
  EXPECT_LT(layers.size(), 256u);
  expect_rejected(layers);
  expect_rejected(
      hostile_frame([&](TallyConfig& c) { c.pathlength_bins = huge; }));
  expect_rejected(hostile_frame([&](TallyConfig& c) { c.depth_bins = huge; }));
}

TEST(Tally, GridsAbsentWhenDisabled) {
  SimulationTally tally(tally_config(false));
  EXPECT_EQ(tally.fluence_grid(), nullptr);
  EXPECT_EQ(tally.path_grid(), nullptr);
}

TEST(Tally, AbsorptionOutOfRangeLayerIsIgnored) {
  SimulationTally tally(tally_config());
  tally.add_absorption(99, 1.0);  // silently dropped by design
  EXPECT_DOUBLE_EQ(tally.absorbed_fraction(), 0.0);
}

}  // namespace
}  // namespace phodis::mc
