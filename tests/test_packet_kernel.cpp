// Packet-mode (KernelMode::kPacket) test suite:
//
//  * vmath accuracy: the documented ulp/absolute error bounds of vlog and
//    vsincos_2pi, measured against libm / long-double references;
//  * the scattering operators both loops share (mc/physics.hpp): the
//    scalar sincos_2pi equals every build's vsincos_2pi bit for bit, and
//    rotate keeps directions unit and realises the requested angle;
//  * packet golden hashes: packet mode pins its OWN tally bytes (it is
//    deliberately not bitwise-equal to scalar), reproducible serially and
//    through the shard plan at every thread count;
//  * ISA builds: the vmath and golden suites above run through every
//    PacketIsa build the host can execute (the rest skip with a reason),
//    the builds are compared byte for byte, and the dispatch rule is
//    pinned against __builtin_cpu_supports;
//  * lane-compaction edge cases: streams smaller than the packet width,
//    heavy-absorption lane churn, roulette in packet mode;
//  * statistical equivalence: packet and scalar runs of the same
//    configuration agree on the global energy balance within k·sigma
//    (and the checker itself detects genuinely different physics).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "core/spec.hpp"
#include "exec/parallel.hpp"
#include "exec/threadpool.hpp"
#include "mc/kernel.hpp"
#include "mc/packet_kernel.hpp"
#include "mc/physics.hpp"
#include "mc/presets.hpp"
#include "mc/vmath.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace {

using namespace phodis;

// --- ISA builds -------------------------------------------------------------

/// Fixture for the suites that run once per PacketIsa build.
class IsaBuild : public ::testing::TestWithParam<mc::PacketIsa> {
 protected:
  void SetUp() override {
    if (!mc::packet_isa_supported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot execute the "
                   << mc::to_string(GetParam()) << " build";
    }
  }
  const mc::PacketIsaBuild& build() const {
    return mc::packet_isa_build(GetParam());
  }
};

std::string isa_name(const ::testing::TestParamInfo<mc::PacketIsa>& info) {
  return mc::to_string(info.param);
}

// --- vmath accuracy ---------------------------------------------------------

double ulp_distance(double reference, double value) {
  if (reference == value) return 0.0;
  const double ulp = std::abs(
      std::nextafter(reference, std::numeric_limits<double>::infinity()) -
      reference);
  return std::abs(reference - value) / ulp;
}

using Vmath = IsaBuild;

TEST_P(Vmath, VlogMatchesStdLogWithinFourUlp) {
  util::Xoshiro256pp rng(7);
  double max_ulp = 0.0;
  constexpr std::size_t kBatch = 64;
  double x[kBatch];
  double out[kBatch];
  for (int rep = 0; rep < 2000; ++rep) {
    for (std::size_t i = 0; i < kBatch; ++i) x[i] = rng.uniform_open0();
    // Include the domain edges and tiny draws in the first batch.
    if (rep == 0) {
      x[0] = 1.0;
      x[1] = 0x1.0p-53;  // smallest uniform_open0() draw
      x[2] = 0.5;
      x[3] = std::nextafter(1.0, 0.0);
    }
    build().vlog(x, out, kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      max_ulp = std::max(max_ulp, ulp_distance(std::log(x[i]), out[i]));
    }
  }
  EXPECT_LE(max_ulp, 4.0);
}

TEST_P(Vmath, SincosMatchesLongDoubleWithinTwoPowMinus50) {
  util::Xoshiro256pp rng(11);
  const long double two_pi_l = 2.0L * 3.14159265358979323846264338327950288L;
  double max_err = 0.0;
  constexpr std::size_t kBatch = 64;
  double u[kBatch];
  double s[kBatch];
  double c[kBatch];
  for (int rep = 0; rep < 2000; ++rep) {
    for (std::size_t i = 0; i < kBatch; ++i) u[i] = rng.uniform();
    if (rep == 0) {
      // Quadrant boundaries and their neighbourhoods.
      u[0] = 0.0;
      u[1] = 0.25;
      u[2] = 0.5;
      u[3] = 0.75;
      u[4] = 0.125;
      u[5] = std::nextafter(1.0, 0.0);
      u[6] = std::nextafter(0.25, 0.0);
      u[7] = std::nextafter(0.25, 1.0);
    }
    build().vsincos_2pi(u, s, c, kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const long double a = two_pi_l * static_cast<long double>(u[i]);
      max_err = std::max(
          max_err, std::abs(static_cast<double>(
                       static_cast<long double>(s[i]) - std::sin(a))));
      max_err = std::max(
          max_err, std::abs(static_cast<double>(
                       static_cast<long double>(c[i]) - std::cos(a))));
    }
  }
  EXPECT_LE(max_err, 0x1.0p-50);
  // And the pair is a unit vector to the same tolerance class.
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_NEAR(s[i] * s[i] + c[i] * c[i], 1.0, 1e-14);
  }
}

// --- shared scattering operators ---------------------------------------------

/// The u the azimuth tests sweep: 2^16 evenly spaced points of [0, 1),
/// each octant boundary k/8 with its neighbours, and the last double
/// below 1.
std::vector<double> azimuth_sweep() {
  std::vector<double> u;
  for (int i = 0; i < (1 << 16); ++i) u.push_back(i / 65536.0);
  for (int k = 0; k < 8; ++k) {
    const double at = k / 8.0;
    u.push_back(at);
    if (k > 0) u.push_back(std::nextafter(at, 0.0));
    u.push_back(std::nextafter(at, 1.0));
  }
  u.push_back(std::nextafter(1.0, 0.0));
  return u;
}

TEST_P(Vmath, ScalarSincosEqualsBuildBitForBit) {
  const std::vector<double> u = azimuth_sweep();
  std::vector<double> s(u.size());
  std::vector<double> c(u.size());
  build().vsincos_2pi(u.data(), s.data(), c.data(), u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const mc::SinCos phi = mc::sincos_2pi(u[i]);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(phi.sin),
              std::bit_cast<std::uint64_t>(s[i]))
        << "sin at u = " << u[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(phi.cos),
              std::bit_cast<std::uint64_t>(c[i]))
        << "cos at u = " << u[i];
  }
}

TEST(ScatterOperators, SincosWithinTwoPowMinus50OfLongDouble) {
  const long double two_pi_l = 2.0L * 3.14159265358979323846264338327950288L;
  double max_err = 0.0;
  for (const double u : azimuth_sweep()) {
    const mc::SinCos phi = mc::sincos_2pi(u);
    const long double a = two_pi_l * static_cast<long double>(u);
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    phi.sin - std::sin(a))));
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    phi.cos - std::cos(a))));
  }
  EXPECT_LE(max_err, 0x1.0p-50);
}

/// |dir| in long double, so the check sees the rounding of dir alone.
long double norm_l(const util::Vec3& dir) {
  const long double x = dir.x, y = dir.y, z = dir.z;
  return std::sqrt(x * x + y * y + z * z);
}

// A photon's direction goes through rotate once per interaction, ~10^4
// times per photon, each output the next input: the Newton step must keep
// the norm pinned at 1 over the whole chain, not let it drift. The angle
// holds to 1e-12 plus the update's own conditioning: it divides by
// sqrt(1 - z^2), so within ~1e-6 of the axis the rounding of 1 - z^2 shows
// as eps/(1 - z^2) (exact division and sqrt renormalisation do no better:
// 1.4e-11 on this chain).
TEST(ScatterOperators, RotateKeepsUnitNormAndAngleOverAChain) {
  constexpr double kUlp = std::numeric_limits<double>::epsilon();
  util::Xoshiro256pp rng(23);
  util::Vec3 dir{0.0, 0.0, 1.0};  // starts in the axis form
  long double max_norm_err = 0.0L;
  double max_cos_excess = 0.0;  // error beyond the bound; <= 0 passes
  for (int i = 0; i < 1'000'000; ++i) {
    const double ct = 2.0 * rng.uniform() - 1.0;
    const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
    const mc::SinCos phi = mc::sincos_2pi(rng.uniform());
    const util::Vec3 out = mc::rotate(dir, ct, st, phi.cos, phi.sin);
    max_norm_err = std::max(max_norm_err, std::abs(norm_l(out) - 1.0L));
    const double bound = 1e-12 + kUlp / std::max(1.0 - dir.z * dir.z, kUlp);
    max_cos_excess =
        std::max(max_cos_excess, std::abs(out.dot(dir) - ct) - bound);
    dir = out;
  }
  EXPECT_LE(max_norm_err, 4.0L * kUlp);
  EXPECT_LE(max_cos_excess, 0.0);
}

// Along ±z the general update divides by sqrt(1 - z^2) ~ 0; rotate must
// select the axis form there, which depends on dir only through the sign
// of z, so a direction tilted inside the band turns exactly like the axis.
TEST(ScatterOperators, RotateTakesTheAxisFormNearTheZAxis) {
  constexpr double kUlp = std::numeric_limits<double>::epsilon();
  const double tilt = 1e-6;  // |z| = 1 - 5e-13, inside the 1e-10 band
  for (const double sign : {1.0, -1.0}) {
    const util::Vec3 axis{0.0, 0.0, sign};
    const util::Vec3 tilted{tilt, -tilt, sign * std::sqrt(1.0 - 2 * tilt * tilt)};
    for (const double u : {0.0, 0.1, 0.3, 0.55, 0.8}) {
      for (const double ct : {-0.9, -0.2, 0.0, 0.5, 0.99}) {
        const double st = std::sqrt(1.0 - ct * ct);
        const mc::SinCos phi = mc::sincos_2pi(u);
        const util::Vec3 out = mc::rotate(axis, ct, st, phi.cos, phi.sin);
        EXPECT_LE(std::abs(norm_l(out) - 1.0L), 4.0L * kUlp);
        EXPECT_NEAR(out.dot(axis), ct, 1e-12);
        EXPECT_EQ(mc::rotate(tilted, ct, st, phi.cos, phi.sin), out);
      }
    }
  }
}

// --- harness ---------------------------------------------------------------

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

mc::SimulationTally run_tally(const mc::KernelConfig& config,
                              std::uint64_t photons, std::uint64_t seed) {
  const mc::Kernel kernel(config);
  mc::SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(seed);
  kernel.run(photons, rng, tally);
  return tally;
}

/// run_tally through one ISA build instead of the dispatched one.
std::vector<std::uint8_t> run_bytes(mc::PacketIsa isa,
                                    const mc::KernelConfig& config,
                                    std::uint64_t photons,
                                    std::uint64_t seed = 42) {
  const mc::Kernel kernel(config);
  mc::SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(seed);
  mc::KernelStats stats;
  mc::packet_isa_build(isa).run(kernel, photons, rng, tally, stats);
  return tally.to_bytes();
}

mc::KernelConfig two_layer_packet() {
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  config.mode = mc::KernelMode::kPacket;
  return config;
}

// --- packet golden hashes ---------------------------------------------------
//
// Packet mode's own bitwise pin: the SoA loop, the vmath polynomials, the
// fixed three-draw schedule and the long_jump lane sub-streams together
// make these reproducible on any machine, any thread count, any build
// type in the matrix (the scoped -O3/-mavx2/-ffp-contract=off flags on
// the packet TUs are part of this contract). A hash change here means the
// packet physics stream changed and must be an intentional re-record.
// Every ISA build must reproduce the same hashes bit for bit.

using PacketGolden = IsaBuild;

TEST_P(PacketGolden, TwoLayer) {
  EXPECT_EQ(fnv1a64(run_bytes(GetParam(), two_layer_packet(), 10'000)),
            0x780496D06EEC2F2FULL);
}

mc::KernelConfig two_layer_radial_detector() {
  mc::KernelConfig config = two_layer_packet();
  config.tally.enable_radial = true;
  config.detector = mc::DetectorSpec{};
  return config;
}

TEST_P(PacketGolden, TwoLayerRadialAndDetector) {
  EXPECT_EQ(fnv1a64(run_bytes(GetParam(), two_layer_radial_detector(), 5'000)),
            0x8293DD6AB5EBB754ULL);
}

mc::KernelConfig two_layer_fluence_grid() {
  mc::KernelConfig config = two_layer_packet();
  config.tally.enable_fluence_grid = true;
  config.tally.fluence_spec = mc::GridSpec::cube(40, 20.0, 40.0);
  return config;
}

TEST_P(PacketGolden, TwoLayerFluenceGrid) {
  EXPECT_EQ(fnv1a64(run_bytes(GetParam(), two_layer_fluence_grid(), 5'000)),
            0x75AA1374DE50ED77ULL);
}

mc::KernelConfig head_model_packet() {
  mc::KernelConfig config;
  config.medium = mc::adult_head_model();
  config.mode = mc::KernelMode::kPacket;
  return config;
}

TEST_P(PacketGolden, HeadModel) {
  EXPECT_EQ(fnv1a64(run_bytes(GetParam(), head_model_packet(), 2'000)),
            0x0848D6DF2D28B50FULL);
}

mc::KernelConfig white_matter_gaussian_packet() {
  mc::KernelConfig config;
  config.medium = mc::homogeneous_white_matter();
  config.mode = mc::KernelMode::kPacket;
  config.source.type = mc::SourceType::kGaussian;
  config.source.radius_mm = 1.0;
  config.source.half_angle_deg = 15.0;
  return config;
}

TEST_P(PacketGolden, WhiteMatterDivergingGaussianSource) {
  EXPECT_EQ(
      fnv1a64(run_bytes(GetParam(), white_matter_gaussian_packet(), 5'000)),
      0x35B4B19AF2EC90EBULL);
}

TEST_P(PacketGolden, RunIsSelfReproducible) {
  const mc::KernelConfig config = two_layer_packet();
  EXPECT_EQ(run_bytes(GetParam(), config, 4'000, 9),
            run_bytes(GetParam(), config, 4'000, 9));
}

/// ParallelKernelRunner's shard plan (same shards, streams and merge
/// order), with each shard run through one ISA build on `pool`.
std::vector<std::uint8_t> shard_plan_bytes(mc::PacketIsa isa,
                                           const mc::Kernel& kernel,
                                           std::uint64_t photons,
                                           exec::ThreadPool& pool) {
  const std::vector<std::uint64_t> shards = exec::shard_plan(photons, 4096);
  const std::vector<util::Xoshiro256pp> streams =
      exec::shard_streams(42, 0, shards.size());
  std::vector<std::optional<mc::SimulationTally>> tallies(shards.size());
  std::vector<std::function<void()>> jobs;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    jobs.push_back([&, s] {
      util::Xoshiro256pp rng = streams[s];
      mc::SimulationTally tally = kernel.make_tally();
      mc::KernelStats stats;
      mc::packet_isa_build(isa).run(kernel, shards[s], rng, tally, stats);
      tallies[s].emplace(std::move(tally));
    });
  }
  pool.run(std::move(jobs));
  mc::SimulationTally merged = kernel.make_tally();
  for (const std::optional<mc::SimulationTally>& tally : tallies) {
    merged.merge(*tally);
  }
  return merged.to_bytes();
}

TEST_P(PacketGolden, ShardPlanMatchesRecordedHashAtEveryThreadCount) {
  const mc::Kernel kernel(two_layer_packet());

  const exec::ParallelKernelRunner serial_runner(kernel, nullptr, 4096);
  const std::vector<std::uint8_t> serial_bytes =
      serial_runner.run(10'000, 42, 0).to_bytes();
  EXPECT_EQ(fnv1a64(serial_bytes), 0x711A72E8CE11073FULL);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    EXPECT_EQ(shard_plan_bytes(GetParam(), kernel, 10'000, pool),
              serial_bytes)
        << "thread count " << threads;
    const exec::ParallelKernelRunner runner(kernel, &pool, 4096);
    EXPECT_EQ(runner.run(10'000, 42, 0).to_bytes(), serial_bytes)
        << "dispatched build, thread count " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, Vmath, ::testing::ValuesIn(mc::kPacketIsas),
                         isa_name);
INSTANTIATE_TEST_SUITE_P(Isa, PacketGolden,
                         ::testing::ValuesIn(mc::kPacketIsas), isa_name);

// --- cross-build identity and dispatch --------------------------------------

TEST(PacketIsa, EveryBuildProducesIdenticalBytes) {
  if (!mc::packet_isa_supported(mc::PacketIsa::kAvx512)) {
    GTEST_SKIP() << "only the avx2 build runs on this CPU";
  }
  for (const mc::KernelConfig& config :
       {two_layer_packet(), two_layer_radial_detector(),
        two_layer_fluence_grid(), head_model_packet(),
        white_matter_gaussian_packet()}) {
    EXPECT_EQ(run_bytes(mc::PacketIsa::kAvx512, config, 3'000, 5),
              run_bytes(mc::PacketIsa::kAvx2, config, 3'000, 5));
  }

  constexpr std::size_t kBatch = 4096;
  std::vector<double> u(kBatch);
  util::Xoshiro256pp rng(3);
  for (double& value : u) value = rng.uniform_open0();
  const auto vmath_bytes = [&](mc::PacketIsa isa) {
    std::vector<double> out(3 * kBatch);
    mc::packet_isa_build(isa).vlog(u.data(), out.data(), kBatch);
    mc::packet_isa_build(isa).vsincos_2pi(u.data(), out.data() + kBatch,
                                          out.data() + 2 * kBatch, kBatch);
    return out;
  };
  const std::vector<double> a = vmath_bytes(mc::PacketIsa::kAvx2);
  const std::vector<double> b = vmath_bytes(mc::PacketIsa::kAvx512);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(PacketIsa, DispatchPicksAvx512ExactlyWhenEveryFeatureIsPresent) {
  for (unsigned bits = 0; bits < 16; ++bits) {
    mc::Avx512Features cpu;
    cpu.f = (bits & 1u) != 0;
    cpu.dq = (bits & 2u) != 0;
    cpu.vl = (bits & 4u) != 0;
    cpu.bw = (bits & 8u) != 0;
    EXPECT_EQ(mc::select_packet_isa(cpu),
              bits == 15 ? mc::PacketIsa::kAvx512 : mc::PacketIsa::kAvx2)
        << "feature bits " << bits;
  }

  const mc::Avx512Features host = mc::host_avx512_features();
  EXPECT_EQ(host.f, __builtin_cpu_supports("avx512f") != 0);
  EXPECT_EQ(host.dq, __builtin_cpu_supports("avx512dq") != 0);
  EXPECT_EQ(host.vl, __builtin_cpu_supports("avx512vl") != 0);
  EXPECT_EQ(host.bw, __builtin_cpu_supports("avx512bw") != 0);
  const bool all = __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512dq") &&
                   __builtin_cpu_supports("avx512vl") &&
                   __builtin_cpu_supports("avx512bw");
  const mc::PacketIsa dispatched = mc::dispatched_packet_isa();
  EXPECT_EQ(dispatched, all ? mc::PacketIsa::kAvx512 : mc::PacketIsa::kAvx2);
  EXPECT_TRUE(mc::packet_isa_supported(dispatched));
  EXPECT_EQ(obs::registry()
                .gauge("mc_packet_isa", {{"isa", mc::to_string(dispatched)}})
                .value(),
            1.0);
}

// --- lane-compaction edge cases --------------------------------------------

TEST(PacketKernel, StreamSmallerThanPacketWidth) {
  for (const std::uint64_t photons : {1ull, 3ull, 7ull}) {
    ASSERT_LT(photons, mc::kPacketWidth);
    const mc::SimulationTally tally =
        run_tally(two_layer_packet(), photons, 5);
    EXPECT_EQ(tally.photons_launched(), photons);
    EXPECT_LT(tally.weight_conservation_error(), 1e-9);
  }
}

TEST(PacketKernel, ZeroPhotonsIsANoOp) {
  const mc::SimulationTally tally = run_tally(two_layer_packet(), 0, 5);
  EXPECT_EQ(tally.photons_launched(), 0u);
}

TEST(PacketKernel, HeavyAbsorptionChurnsLanesThroughRefill) {
  // Nearly pure absorbers die in one or two events, so every lane cycles
  // through many refills (including whole packets dying in the same
  // iteration). The stream must still account for every photon exactly.
  mc::KernelConfig config;
  mc::LayeredMediumBuilder builder;
  builder.add_semi_infinite_layer(
      "absorber", mc::OpticalProperties{/*mua=*/50.0, /*mus=*/0.5,
                                        /*g=*/0.0, /*n=*/1.4});
  config.medium = builder.build();
  config.mode = mc::KernelMode::kPacket;
  const mc::SimulationTally tally = run_tally(config, 1'000, 21);
  EXPECT_EQ(tally.photons_launched(), 1'000u);
  EXPECT_LT(tally.weight_conservation_error(), 1e-9);
  EXPECT_GT(tally.absorbed_fraction(), 0.8);
}

TEST(PacketKernel, RouletteSurvivorsAndTerminationsBalance) {
  // A scattering-dominated slab pushes most packets down to the roulette
  // threshold; conservation holds only if the packet loop plays roulette
  // (and refills terminated lanes) correctly.
  const mc::SimulationTally tally = run_tally(two_layer_packet(), 4'000, 17);
  EXPECT_EQ(tally.photons_launched(), 4'000u);
  EXPECT_LT(tally.weight_conservation_error(), 1e-9);
  // The fraction sum differs from 1 by exactly the net roulette
  // gain-minus-loss, which fluctuates a few parts in 1e6 per run (only
  // its expectation is zero); the conservation identity above is the
  // exact check.
  const double total = tally.specular_reflectance() +
                       tally.diffuse_reflectance() + tally.transmittance() +
                       tally.absorbed_fraction() + tally.lost_fraction();
  EXPECT_NEAR(total, 1.0, 1e-3);
}

// --- configuration gate -----------------------------------------------------

TEST(PacketKernel, ValidateRejectsUnsupportedConfigurations) {
  {
    mc::KernelConfig config = two_layer_packet();
    config.boundary_model = mc::BoundaryModel::kClassical;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    mc::KernelConfig config = two_layer_packet();
    config.tally.enable_path_grid = true;
    config.tally.path_spec = mc::GridSpec::cube(10, 10.0, 10.0);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    mc::KernelConfig config;
    mc::LayeredMediumBuilder builder;
    builder.add_layer("vacuum",
                      mc::OpticalProperties{0.0, 0.0, 0.0, 1.0}, 5.0);
    builder.add_semi_infinite_layer(
        "tissue", mc::OpticalProperties{0.02, 10.0, 0.9, 1.4});
    config.medium = builder.build();
    config.mode = mc::KernelMode::kPacket;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(PacketKernel, ParseAndToStringRoundTrip) {
  EXPECT_EQ(mc::parse_kernel_mode("scalar"), mc::KernelMode::kScalar);
  EXPECT_EQ(mc::parse_kernel_mode("packet"), mc::KernelMode::kPacket);
  EXPECT_EQ(mc::parse_kernel_mode("SIMD"), mc::KernelMode::kPacket);
  EXPECT_THROW(mc::parse_kernel_mode("vector"), std::invalid_argument);
  EXPECT_EQ(mc::to_string(mc::KernelMode::kScalar), "scalar");
  EXPECT_EQ(mc::to_string(mc::KernelMode::kPacket), "packet");
}

TEST(PacketKernel, SpecRoundTripCarriesKernelMode) {
  core::SimulationSpec spec;
  spec.kernel = two_layer_packet();
  spec.photons = 123;
  spec.seed = 7;
  util::ByteWriter writer;
  spec.serialize(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  util::ByteReader reader(bytes);
  const core::SimulationSpec decoded = core::SimulationSpec::deserialize(reader);
  EXPECT_EQ(decoded.kernel.mode, mc::KernelMode::kPacket);
}

// --- statistical equivalence vs the scalar oracle ---------------------------

void expect_equivalent(const mc::KernelConfig& scalar_config,
                       std::uint64_t scalar_photons,
                       std::uint64_t packet_photons) {
  mc::KernelConfig packet_config = scalar_config;
  packet_config.mode = mc::KernelMode::kPacket;
  const mc::SimulationTally reference =
      run_tally(scalar_config, scalar_photons, 42);
  const mc::SimulationTally candidate =
      run_tally(packet_config, packet_photons, 43);
  const mc::StatEquivalence eq =
      mc::statistical_equivalence(reference, candidate);
  EXPECT_TRUE(eq.pass) << eq.summary();
}

TEST(PacketStat, TwoLayerWithRadialAndDetectorMatchesScalar) {
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  config.tally.enable_radial = true;
  mc::DetectorSpec detector;
  detector.separation_mm = 10.0;
  detector.radius_mm = 3.0;
  config.detector = detector;
  expect_equivalent(config, 20'000, 20'000);
}

TEST(PacketStat, HeadModelMatchesScalar) {
  mc::KernelConfig config;
  config.medium = mc::adult_head_model();
  expect_equivalent(config, 10'000, 10'000);
}

TEST(PacketStat, DivergingGaussianSourceMatchesScalar) {
  mc::KernelConfig config;
  config.medium = mc::homogeneous_white_matter();
  config.source.type = mc::SourceType::kGaussian;
  config.source.radius_mm = 1.0;
  config.source.half_angle_deg = 15.0;
  expect_equivalent(config, 10'000, 10'000);
}

TEST(PacketStat, PureAbsorberOverScatterDetectsNoZeroWeightPhotons) {
  // A µs = 0 layer deposits everything at its first interaction (µa/µt =
  // 1), leaving weight exactly 0. Roulette must kill such a photon: one
  // that survived at weight 0 would go on to be counted as a detection
  // while adding no detected weight, which only the detected-count check
  // can see.
  mc::OpticalProperties absorber;
  absorber.mua = 5.0;
  absorber.mus = 0.0;
  absorber.n = 1.0;
  mc::OpticalProperties scatterer;
  scatterer.mua = 0.01;
  scatterer.mus = 10.0;
  scatterer.g = 0.9;
  scatterer.n = 1.0;
  mc::KernelConfig config;
  config.medium = mc::LayeredMediumBuilder()
                      .add_layer("absorber", absorber, 0.2)
                      .add_semi_infinite_layer("scatterer", scatterer)
                      .build();
  mc::DetectorSpec detector;
  detector.separation_mm = 0.0;
  detector.radius_mm = 50.0;
  config.detector = detector;

  mc::KernelConfig packet_config = config;
  packet_config.mode = mc::KernelMode::kPacket;
  const mc::StatEquivalence eq = mc::statistical_equivalence(
      run_tally(config, 40'000, 42), run_tally(packet_config, 40'000, 43));
  EXPECT_TRUE(eq.pass) << eq.summary();
  const auto count_check = std::find_if(
      eq.checks.begin(), eq.checks.end(), [](const mc::StatCheck& c) {
        return c.name == "detected_count_fraction";
      });
  ASSERT_NE(count_check, eq.checks.end()) << eq.summary();
  EXPECT_GT(count_check->reference, 0.0);
}

TEST(PacketStat, CheckerFlagsGenuinelyDifferentPhysics) {
  // Negative control: the equivalence criterion must not be vacuous.
  mc::KernelConfig two_layer;
  two_layer.medium = mc::two_layer_model();
  mc::KernelConfig head;
  head.medium = mc::adult_head_model();
  head.mode = mc::KernelMode::kPacket;
  const mc::StatEquivalence eq = mc::statistical_equivalence(
      run_tally(two_layer, 10'000, 42), run_tally(head, 10'000, 43));
  EXPECT_FALSE(eq.pass);
}

TEST(PacketStat, ScalarAgainstItselfPasses) {
  // Positive control at a different seed: pure Monte Carlo noise stays
  // far inside the gate.
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  const mc::StatEquivalence eq = mc::statistical_equivalence(
      run_tally(config, 10'000, 1), run_tally(config, 10'000, 2));
  EXPECT_TRUE(eq.pass) << eq.summary();
  EXPECT_LT(eq.max_z, mc::kDefaultStatSigma);
}

}  // namespace
