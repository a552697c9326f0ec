// Tests for the three source footprints and Russian roulette.
#include <gtest/gtest.h>

#include <cmath>

#include "mc/physics.hpp"
#include "mc/source.hpp"
#include "mc/tally.hpp"
#include "util/rng.hpp"

namespace phodis::mc {
namespace {

// ---------- sources ----------------------------------------------------------

TEST(Source, ParseNames) {
  EXPECT_EQ(parse_source_type("delta"), SourceType::kDelta);
  EXPECT_EQ(parse_source_type("LASER"), SourceType::kDelta);
  EXPECT_EQ(parse_source_type("pencil"), SourceType::kDelta);
  EXPECT_EQ(parse_source_type("gaussian"), SourceType::kGaussian);
  EXPECT_EQ(parse_source_type("Gauss"), SourceType::kGaussian);
  EXPECT_EQ(parse_source_type("uniform"), SourceType::kUniform);
  EXPECT_EQ(parse_source_type("flat"), SourceType::kUniform);
  EXPECT_THROW(parse_source_type("plasma"), std::invalid_argument);
}

TEST(Source, ToStringRoundTrips) {
  for (SourceType t :
       {SourceType::kDelta, SourceType::kGaussian, SourceType::kUniform}) {
    EXPECT_EQ(parse_source_type(to_string(t)), t);
  }
}

TEST(Source, SpecValidation) {
  SourceSpec spec;
  spec.type = SourceType::kGaussian;
  spec.radius_mm = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.type = SourceType::kDelta;
  EXPECT_NO_THROW(spec.validate());  // delta ignores radius
  spec.type = SourceType::kUniform;
  spec.radius_mm = 2.0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(Source, DeltaLaunchesAtOrigin) {
  SourceSpec spec;
  spec.type = SourceType::kDelta;
  Source source(spec);
  util::Xoshiro256pp rng(1);
  for (int i = 0; i < 100; ++i) {
    const PhotonPacket p = source.launch(rng);
    EXPECT_EQ(p.pos, (util::Vec3{0, 0, 0}));
    EXPECT_EQ(p.dir, (util::Vec3{0, 0, 1}));
    EXPECT_DOUBLE_EQ(p.weight, 1.0);
    EXPECT_TRUE(p.alive());
  }
}

TEST(Source, UniformStaysInsideDisc) {
  SourceSpec spec;
  spec.type = SourceType::kUniform;
  spec.radius_mm = 3.0;
  Source source(spec);
  util::Xoshiro256pp rng(2);
  for (int i = 0; i < 50000; ++i) {
    const util::Vec3 p = source.sample_position(rng);
    ASSERT_LE(std::hypot(p.x, p.y), 3.0 + 1e-12);
    ASSERT_DOUBLE_EQ(p.z, 0.0);
  }
}

TEST(Source, UniformIsUniformInArea) {
  // For uniform area density, E[r^2] = R^2/2.
  SourceSpec spec;
  spec.type = SourceType::kUniform;
  spec.radius_mm = 2.0;
  Source source(spec);
  util::Xoshiro256pp rng(3);
  const int n = 200000;
  double sum_r2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const util::Vec3 p = source.sample_position(rng);
    sum_r2 += p.x * p.x + p.y * p.y;
  }
  EXPECT_NEAR(sum_r2 / n, 2.0 * 2.0 / 2.0, 2e-2);
}

TEST(Source, GaussianMatchesBeamRadiusDefinition) {
  // 1/e^2 radius w: each coordinate is N(0, w/2), so E[r^2] = w^2/2.
  SourceSpec spec;
  spec.type = SourceType::kGaussian;
  spec.radius_mm = 4.0;
  Source source(spec);
  util::Xoshiro256pp rng(4);
  const int n = 200000;
  double sum_r2 = 0.0;
  double sum_x = 0.0;
  for (int i = 0; i < n; ++i) {
    const util::Vec3 p = source.sample_position(rng);
    sum_r2 += p.x * p.x + p.y * p.y;
    sum_x += p.x;
  }
  EXPECT_NEAR(sum_r2 / n, 4.0 * 4.0 / 2.0, 0.15);
  EXPECT_NEAR(sum_x / n, 0.0, 2e-2);
}

TEST(Source, FootprintsHaveIncreasingSpread) {
  // delta < gaussian(r) mean spread for the same nominal radius as a
  // sanity ordering, and all launch on the surface plane.
  util::Xoshiro256pp rng(5);
  SourceSpec g;
  g.type = SourceType::kGaussian;
  g.radius_mm = 1.0;
  Source gauss(g);
  double spread = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const util::Vec3 p = gauss.sample_position(rng);
    spread += std::hypot(p.x, p.y);
  }
  EXPECT_GT(spread, 0.0);
}

// ---------- roulette ---------------------------------------------------------

TEST(Roulette, SpecValidation) {
  RouletteSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.threshold = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.threshold = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.threshold = 1e-4;
  spec.survival_multiplier = 1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

/// survive_roulette with this test's own draw and a scratch tally for its
/// gain/loss ledger.
double play(double weight, const RouletteSpec& spec, util::Xoshiro256pp& rng,
            SimulationTally& ledger) {
  return survive_roulette(weight, spec, rng.uniform(), ledger);
}

TEST(Roulette, PreservesExpectedWeight) {
  // E[post-roulette weight] must equal the input weight (unbiasedness).
  RouletteSpec spec;
  spec.survival_multiplier = 10.0;
  util::Xoshiro256pp rng(6);
  SimulationTally ledger{TallyConfig{}};
  const double w = 5e-5;
  const int n = 2000000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += play(w, spec, rng, ledger);
  EXPECT_NEAR(sum / n / w, 1.0, 2e-2);
}

TEST(Roulette, SurvivorsCarryMultipliedWeight) {
  RouletteSpec spec;
  spec.survival_multiplier = 10.0;
  util::Xoshiro256pp rng(7);
  SimulationTally ledger{TallyConfig{}};
  const double w = 1e-5;
  for (int i = 0; i < 1000; ++i) {
    const double out = play(w, spec, rng, ledger);
    ASSERT_TRUE(out == 0.0 || std::abs(out - w * 10.0) < 1e-18);
  }
}

TEST(Roulette, SurvivalRateIsOneOverMultiplier) {
  RouletteSpec spec;
  spec.survival_multiplier = 5.0;
  util::Xoshiro256pp rng(8);
  SimulationTally ledger{TallyConfig{}};
  const int n = 500000;
  int survived = 0;
  for (int i = 0; i < n; ++i) {
    if (play(1e-5, spec, rng, ledger) > 0.0) ++survived;
  }
  EXPECT_NEAR(static_cast<double>(survived) / n, 0.2, 3e-3);
}

TEST(Roulette, LedgerBooksEveryGainAndLoss) {
  // Each survivor books (m-1)·w as gain and each death books w as loss,
  // so the ledger holds exactly the weight roulette created or destroyed:
  // zero net error in weight_conservation_error().
  RouletteSpec spec;
  util::Xoshiro256pp rng(10);
  SimulationTally ledger{TallyConfig{}};
  const double w = 2e-5;
  const int n = 10000;
  int survived = 0;
  for (int i = 0; i < n; ++i) {
    if (play(w, spec, rng, ledger) > 0.0) ++survived;
  }
  ASSERT_GT(survived, 0);
  ASSERT_LT(survived, n);
  // Weight after roulette = survivors · m · w; the ledger's net must move
  // the n·w that went in to exactly that.
  const double before = n * w;
  const double after = survived * spec.survival_multiplier * w;
  const double net = ledger.weight_conservation_error();
  // No photons were launched and no sinks filled: the conservation error
  // is |gain - loss| = |after - before|.
  EXPECT_NEAR(net, std::abs(after - before), 1e-12);
}

TEST(Roulette, ZeroWeightAlwaysDies) {
  // A photon that has deposited everything must not survive to be scored
  // again, whatever the draw: survival at weight 0 is death.
  RouletteSpec spec;
  SimulationTally ledger{TallyConfig{}};
  EXPECT_EQ(survive_roulette(0.0, spec, 0.0, ledger), 0.0);
  EXPECT_EQ(survive_roulette(1e-5, spec, 0.0, ledger), 1e-5 * 10.0);
  EXPECT_EQ(survive_roulette(1e-5, spec, 0.5, ledger), 0.0);
}

class RouletteMultiplierSweep : public ::testing::TestWithParam<double> {};

TEST_P(RouletteMultiplierSweep, UnbiasedAcrossMultipliers) {
  RouletteSpec spec;
  spec.survival_multiplier = GetParam();
  util::Xoshiro256pp rng(9);
  SimulationTally ledger{TallyConfig{}};
  const double w = 1e-5;
  const int n = 1000000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += play(w, spec, rng, ledger);
  EXPECT_NEAR(sum / n / w, 1.0, 3e-2);
}

INSTANTIATE_TEST_SUITE_P(Multipliers, RouletteMultiplierSweep,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0));

}  // namespace
}  // namespace phodis::mc
