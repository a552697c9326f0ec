// Tests for optical properties, the layered medium, and the Table 1
// presets.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mc/layer.hpp"
#include "mc/optical.hpp"
#include "mc/presets.hpp"

namespace phodis::mc {
namespace {

// ---------- OpticalProperties ------------------------------------------------

TEST(Optical, DerivedQuantities) {
  OpticalProperties p;
  p.mua = 0.014;
  p.mus = 91.0;
  p.g = 0.9;
  p.n = 1.4;
  EXPECT_DOUBLE_EQ(p.mut(), 91.014);
  EXPECT_NEAR(p.albedo(), 91.0 / 91.014, 1e-12);
  EXPECT_NEAR(p.mus_reduced(), 9.1, 1e-12);
  EXPECT_NEAR(p.mean_free_path(), 1.0 / 91.014, 1e-15);
}

TEST(Optical, MueffMatchesDefinition) {
  OpticalProperties p;
  p.mua = 0.02;
  p.mus = 10.0;
  p.g = 0.9;
  const double expected = std::sqrt(3.0 * 0.02 * (0.02 + 1.0));
  EXPECT_NEAR(p.mueff(), expected, 1e-12);
}

TEST(Optical, VacuumHasInfiniteMeanFreePath) {
  OpticalProperties p;  // all zero, n = 1
  EXPECT_TRUE(std::isinf(p.mean_free_path()));
  EXPECT_DOUBLE_EQ(p.albedo(), 0.0);
}

TEST(Optical, ValidateRejectsOutOfRange) {
  OpticalProperties p;
  p.mua = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.mua = 0.1;
  p.mus = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.mus = 1.0;
  p.g = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.g = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.g = 0.5;
  p.n = 0.9;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.n = 1.4;
  EXPECT_NO_THROW(p.validate());
}

TEST(Optical, FromReducedInvertsCorrectly) {
  const OpticalProperties p = OpticalProperties::from_reduced(0.018, 1.9, 0.9, 1.4);
  EXPECT_NEAR(p.mus_reduced(), 1.9, 1e-12);
  EXPECT_NEAR(p.mus, 19.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.g, 0.9);
}

class FromReducedSweep : public ::testing::TestWithParam<double> {};

TEST_P(FromReducedSweep, ReducedCoefficientIsPreserved) {
  const double g = GetParam();
  const OpticalProperties p = OpticalProperties::from_reduced(0.02, 2.2, g, 1.4);
  EXPECT_NEAR(p.mus_reduced(), 2.2, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AnisotropyValues, FromReducedSweep,
                         ::testing::Values(0.0, 0.5, 0.8, 0.9, 0.95, 0.99,
                                           -0.5));

// ---------- LayeredMedium ----------------------------------------------------

OpticalProperties simple_props(double n = 1.4) {
  OpticalProperties p;
  p.mua = 0.01;
  p.mus = 1.0;
  p.g = 0.9;
  p.n = n;
  return p;
}

TEST(Layer, BuilderStacksContiguously) {
  LayeredMediumBuilder b;
  b.add_layer("a", simple_props(), 3.0);
  b.add_layer("b", simple_props(), 7.0);
  b.add_semi_infinite_layer("c", simple_props());
  const LayeredMedium m = b.build();
  ASSERT_EQ(m.layer_count(), 3u);
  EXPECT_DOUBLE_EQ(m.layer(0).z0, 0.0);
  EXPECT_DOUBLE_EQ(m.layer(0).z1, 3.0);
  EXPECT_DOUBLE_EQ(m.layer(1).z0, 3.0);
  EXPECT_DOUBLE_EQ(m.layer(1).z1, 10.0);
  EXPECT_DOUBLE_EQ(m.layer(2).z0, 10.0);
  EXPECT_TRUE(std::isinf(m.layer(2).z1));
  EXPECT_TRUE(m.semi_infinite());
  EXPECT_DOUBLE_EQ(m.total_thickness(), 10.0);
}

TEST(Layer, LayerAtMapsDepthsToLayers) {
  LayeredMediumBuilder b;
  b.add_layer("a", simple_props(), 2.0);
  b.add_layer("b", simple_props(), 3.0);
  b.add_semi_infinite_layer("c", simple_props());
  const LayeredMedium m = b.build();
  EXPECT_EQ(m.layer_at(0.0), 0u);
  EXPECT_EQ(m.layer_at(1.999), 0u);
  EXPECT_EQ(m.layer_at(2.0), 1u);  // interface belongs to the layer below
  EXPECT_EQ(m.layer_at(4.999), 1u);
  EXPECT_EQ(m.layer_at(5.0), 2u);
  EXPECT_EQ(m.layer_at(1e9), 2u);
}

TEST(Layer, NeighbourIndexAtEdgesUsesAmbient) {
  LayeredMediumBuilder b;
  b.ambient_above(1.0).ambient_below(1.33);
  b.add_layer("a", simple_props(1.4), 1.0);
  b.add_layer("b", simple_props(1.5), 1.0);
  const LayeredMedium m = b.build();
  EXPECT_DOUBLE_EQ(m.neighbour_index(0, false), 1.0);   // above layer 0: air
  EXPECT_DOUBLE_EQ(m.neighbour_index(0, true), 1.5);    // below layer 0
  EXPECT_DOUBLE_EQ(m.neighbour_index(1, false), 1.4);   // above layer 1
  EXPECT_DOUBLE_EQ(m.neighbour_index(1, true), 1.33);   // below: ambient
}

TEST(Layer, BuilderRejectsInvalidUse) {
  LayeredMediumBuilder b;
  EXPECT_THROW(b.build(), std::logic_error);  // no layers
  EXPECT_THROW(b.add_layer("x", simple_props(), 0.0), std::invalid_argument);
  EXPECT_THROW(b.add_layer("x", simple_props(), -1.0), std::invalid_argument);
  b.add_semi_infinite_layer("end", simple_props());
  EXPECT_THROW(b.add_layer("after", simple_props(), 1.0), std::logic_error);
  EXPECT_THROW(b.add_semi_infinite_layer("again", simple_props()),
               std::logic_error);
}

TEST(Layer, BuilderRejectsBadAmbient) {
  LayeredMediumBuilder b;
  EXPECT_THROW(b.ambient_above(0.5), std::invalid_argument);
  EXPECT_THROW(b.ambient_below(0.0), std::invalid_argument);
}

TEST(Layer, BuilderValidatesLayerProperties) {
  LayeredMediumBuilder b;
  OpticalProperties bad;
  bad.mua = -5.0;
  EXPECT_THROW(b.add_layer("bad", bad, 1.0), std::invalid_argument);
}

TEST(Layer, FiniteBottomMedium) {
  LayeredMediumBuilder b;
  b.add_layer("only", simple_props(), 4.0);
  const LayeredMedium m = b.build();
  EXPECT_FALSE(m.semi_infinite());
  EXPECT_DOUBLE_EQ(m.bottom(), 4.0);
}

// ---------- presets ----------------------------------------------------------

TEST(Presets, Table1HasFiveTissues) {
  const auto& rows = table1_rows();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].tissue, "Scalp");
  EXPECT_EQ(rows[1].tissue, "Skull");
  EXPECT_EQ(rows[2].tissue, "CSF");
  EXPECT_EQ(rows[3].tissue, "Grey matter");
  EXPECT_EQ(rows[4].tissue, "White matter");
}

TEST(Presets, Table1OpticalValuesMatchPaper) {
  const auto& rows = table1_rows();
  EXPECT_DOUBLE_EQ(rows[0].mus_prime_per_mm, 1.9);
  EXPECT_DOUBLE_EQ(rows[0].mua_per_mm, 0.018);
  EXPECT_DOUBLE_EQ(rows[1].mus_prime_per_mm, 1.6);
  EXPECT_DOUBLE_EQ(rows[1].mua_per_mm, 0.016);
  EXPECT_DOUBLE_EQ(rows[2].mus_prime_per_mm, 0.25);
  EXPECT_DOUBLE_EQ(rows[2].mua_per_mm, 0.004);
  EXPECT_DOUBLE_EQ(rows[3].mus_prime_per_mm, 2.2);
  EXPECT_DOUBLE_EQ(rows[3].mua_per_mm, 0.036);
  EXPECT_DOUBLE_EQ(rows[4].mus_prime_per_mm, 9.1);
  EXPECT_DOUBLE_EQ(rows[4].mua_per_mm, 0.014);
}

TEST(Presets, AdultHeadModelStructure) {
  const LayeredMedium head = adult_head_model();
  ASSERT_EQ(head.layer_count(), 5u);
  EXPECT_EQ(head.layer(0).name, "Scalp");
  EXPECT_EQ(head.layer(4).name, "White matter");
  EXPECT_TRUE(head.semi_infinite());
  // CSF is the low-scattering "sandwich" layer.
  EXPECT_LT(head.layer(2).props.mus_reduced(),
            head.layer(1).props.mus_reduced());
  EXPECT_LT(head.layer(2).props.mus_reduced(),
            head.layer(3).props.mus_reduced());
  // White matter is the most scattering tissue in the model.
  for (std::size_t i = 0; i + 1 < head.layer_count(); ++i) {
    EXPECT_LT(head.layer(i).props.mus_reduced(),
              head.layer(4).props.mus_reduced());
  }
}

TEST(Presets, AdultHeadThicknessesInsideTable1Ranges) {
  const auto& rows = table1_rows();
  // Scalp and skull adopted thicknesses sit inside the printed ranges.
  EXPECT_GE(rows[0].thickness_used_mm, rows[0].thickness_cm_lo * 10.0);
  EXPECT_LE(rows[0].thickness_used_mm, rows[0].thickness_cm_hi * 10.0);
  EXPECT_GE(rows[1].thickness_used_mm, rows[1].thickness_cm_lo * 10.0);
  EXPECT_LE(rows[1].thickness_used_mm, rows[1].thickness_cm_hi * 10.0);
}

TEST(Presets, ReducedScatteringIsGInvariant) {
  // Table 1 constrains µs', so two models with different g but the same
  // µs' must agree on µs'.
  const LayeredMedium a = adult_head_model(0.9);
  const LayeredMedium b = adult_head_model(0.0);
  for (std::size_t i = 0; i < a.layer_count(); ++i) {
    EXPECT_NEAR(a.layer(i).props.mus_reduced(),
                b.layer(i).props.mus_reduced(), 1e-10);
  }
}

TEST(Presets, HomogeneousWhiteMatter) {
  const LayeredMedium wm = homogeneous_white_matter();
  ASSERT_EQ(wm.layer_count(), 1u);
  EXPECT_TRUE(wm.semi_infinite());
  EXPECT_NEAR(wm.layer(0).props.mus_reduced(), 9.1, 1e-10);
  EXPECT_DOUBLE_EQ(wm.layer(0).props.mua, 0.014);
}

TEST(Presets, HomogeneousGreyMatterIsTheTable1GreyRowUnderAir) {
  // perfbench builds these optics by hand and compares its reference
  // tally with phodis_server's bitwise, so they must match exactly.
  const LayeredMedium gm = homogeneous_grey_matter();
  ASSERT_EQ(gm.layer_count(), 1u);
  EXPECT_TRUE(gm.semi_infinite());
  EXPECT_EQ(gm.layer(0).name, "Grey matter");
  const OpticalProperties expected =
      OpticalProperties::from_reduced(0.036, 2.2, 0.9, 1.4);
  EXPECT_EQ(gm.layer(0).props.mua, expected.mua);
  EXPECT_EQ(gm.layer(0).props.mus, expected.mus);
  EXPECT_EQ(gm.layer(0).props.g, expected.g);
  EXPECT_EQ(gm.layer(0).props.n, expected.n);
  EXPECT_EQ(gm.n_above(), 1.0);
  EXPECT_EQ(gm.n_below(), 1.0);
}

TEST(Presets, HomogeneousSlabAndSemiInfinite) {
  OpticalProperties p = simple_props(1.0);
  const LayeredMedium slab = homogeneous_slab(p, 5.0, 1.0);
  EXPECT_EQ(slab.layer_count(), 1u);
  EXPECT_DOUBLE_EQ(slab.bottom(), 5.0);
  const LayeredMedium semi = homogeneous_semi_infinite(p, 1.4);
  EXPECT_TRUE(semi.semi_infinite());
  EXPECT_DOUBLE_EQ(semi.n_above(), 1.4);
}

}  // namespace
}  // namespace phodis::mc
