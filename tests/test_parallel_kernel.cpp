// The determinism contract of the parallel execution subsystem: the same
// seed at 1, 2, 4, and 8 threads produces bitwise-identical tallies,
// equal to run_serial — through the runner directly and through
// MonteCarloApp::run_parallel. Also: the kernel's registry counters
// count exactly the sharded run they flush from, with threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/app.hpp"
#include "exec/parallel.hpp"
#include "exec/threadpool.hpp"
#include "mc/kernel.hpp"
#include "mc/presets.hpp"
#include "obs/metrics.hpp"

namespace phodis {
namespace {

core::SimulationSpec small_spec(std::uint64_t photons) {
  core::SimulationSpec spec;
  mc::OpticalProperties p;
  p.mua = 0.05;
  p.mus = 5.0;
  p.g = 0.8;
  p.n = 1.4;
  mc::LayeredMediumBuilder builder;
  builder.add_layer("top", p, 3.0);
  p.mua = 0.01;
  builder.add_semi_infinite_layer("bottom", p);
  spec.kernel.medium = builder.build();
  mc::DetectorSpec detector;
  detector.separation_mm = 5.0;
  detector.radius_mm = 2.0;
  spec.kernel.detector = detector;
  spec.photons = photons;
  spec.seed = 424242;
  return spec;
}

TEST(ParallelKernelRunner, BitwiseIdenticalAcrossThreadCounts) {
  const core::SimulationSpec spec = small_spec(10'000);
  const mc::Kernel kernel(spec.kernel);
  // Small shards so even this test-sized budget spans many shards.
  const exec::ParallelKernelRunner serial(kernel, nullptr, 512);
  const std::vector<std::uint8_t> reference =
      serial.run(spec.photons, spec.seed, 0).to_bytes();

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    const exec::ParallelKernelRunner runner(kernel, &pool, 512);
    EXPECT_EQ(runner.run(spec.photons, spec.seed, 0).to_bytes(), reference)
        << "thread count " << threads << " changed the tally bytes";
  }
}

TEST(ParallelKernelRunner, SingleShardEqualsAPlainKernelRun) {
  // A budget within one shard is exactly the pre-subsystem per-task
  // path: the unjumped task stream, one tally.
  const core::SimulationSpec spec = small_spec(1'000);
  const mc::Kernel kernel(spec.kernel);
  const exec::ParallelKernelRunner runner(kernel);
  ASSERT_LE(spec.photons, runner.shard_photons());

  mc::SimulationTally direct = kernel.make_tally();
  util::Xoshiro256pp rng = util::Xoshiro256pp::for_task(spec.seed, 3);
  kernel.run(spec.photons, rng, direct);

  EXPECT_EQ(runner.run(spec.photons, spec.seed, 3).to_bytes(),
            direct.to_bytes());
}

TEST(ParallelKernelRunner, ZeroPhotonsYieldsAnEmptyTally) {
  const core::SimulationSpec spec = small_spec(1'000);
  const mc::Kernel kernel(spec.kernel);
  const exec::ParallelKernelRunner runner(kernel);
  const mc::SimulationTally tally = runner.run(0, spec.seed, 0);
  EXPECT_EQ(tally.photons_launched(), 0u);
}

TEST(ParallelKernelRunner, SharedPoolAcrossConcurrentRunsIsDeterministic) {
  const core::SimulationSpec spec = small_spec(4'000);
  const mc::Kernel kernel(spec.kernel);
  const exec::ParallelKernelRunner reference(kernel, nullptr, 256);
  std::vector<std::vector<std::uint8_t>> expected;
  for (std::uint64_t task = 0; task < 4; ++task) {
    expected.push_back(reference.run(spec.photons, spec.seed, task).to_bytes());
  }

  exec::ThreadPool pool(4);
  const exec::ParallelKernelRunner runner(kernel, &pool, 256);
  std::vector<std::vector<std::uint8_t>> got(4);
  std::vector<std::thread> callers;
  for (std::uint64_t task = 0; task < 4; ++task) {
    callers.emplace_back([&, task] {
      got[task] = runner.run(spec.photons, spec.seed, task).to_bytes();
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::uint64_t task = 0; task < 4; ++task) {
    EXPECT_EQ(got[task], expected[task]) << "task " << task;
  }
}

TEST(App, RunParallelMatchesRunSerialBitwise) {
  const core::MonteCarloApp app(small_spec(20'000));
  const std::vector<std::uint8_t> serial = app.run_serial().to_bytes();
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(app.run_parallel(threads).to_bytes(), serial)
        << threads << " threads diverged from run_serial";
  }
}

TEST(App, RunParallelConservesEnergyAndBudget) {
  const core::MonteCarloApp app(small_spec(12'000));
  const mc::SimulationTally tally = app.run_parallel(4);
  EXPECT_EQ(tally.photons_launched(), 12'000u);
  EXPECT_LT(tally.weight_conservation_error(), 1e-6 * 12'000);
}

// ---------------------------------------------------------------------------
// mc_kernel_* registry deltas across one sharded run
// ---------------------------------------------------------------------------

const obs::MetricSample* find_sample(const obs::Snapshot& snapshot,
                                     const std::string& name) {
  const auto it = std::find_if(
      snapshot.samples.begin(), snapshot.samples.end(),
      [&](const obs::MetricSample& s) { return s.name == name; });
  return it == snapshot.samples.end() ? nullptr : &*it;
}

class KernelRegistryDelta : public testing::TestWithParam<mc::KernelMode> {};

TEST_P(KernelRegistryDelta, CountsMatchTheShardedRun) {
  // Two full 4096-photon shards plus 809: a multiple of neither the
  // shard size nor kPacketWidth.
  constexpr std::uint64_t kPhotons = 9'001;
  mc::KernelConfig config;
  // Normal incidence on grey matter: every launch enters the tissue.
  config.medium = mc::homogeneous_grey_matter();
  config.mode = GetParam();
  const mc::Kernel kernel(config);
  exec::ThreadPool pool(4);
  const exec::ParallelKernelRunner runner(kernel, &pool);
  const std::vector<std::uint64_t> shards =
      exec::shard_plan(kPhotons, runner.shard_photons());
  ASSERT_EQ(shards.size(), 3u);

  const obs::Snapshot before = obs::registry().snapshot();
  const mc::SimulationTally tally = runner.run(kPhotons, 77, 0);
  const obs::Snapshot after = obs::registry().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  const auto histogram_sum = [](const obs::Snapshot& snapshot) {
    const obs::MetricSample* s =
        find_sample(snapshot, "mc_kernel_packet_occupancy");
    return s == nullptr ? 0.0 : s->sum;
  };

  ASSERT_EQ(tally.photons_launched(), kPhotons);
  EXPECT_EQ(delta("mc_kernel_photons_launched_total"), kPhotons);
  EXPECT_EQ(delta("exec_shards_total"), shards.size());
  const std::uint64_t interactions = delta("mc_kernel_interactions_total");
  EXPECT_GT(interactions, kPhotons);
  EXPECT_LE(delta("mc_kernel_roulette_terminations_total"), kPhotons);

  // Every flush registers all five metrics with the same kinds, whatever
  // the mode.
  for (const char* name :
       {"mc_kernel_photons_launched_total", "mc_kernel_interactions_total",
        "mc_kernel_roulette_terminations_total",
        "mc_kernel_lane_refills_total"}) {
    const obs::MetricSample* s = find_sample(after, name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->kind, obs::MetricKind::kCounter) << name;
  }
  const obs::MetricSample* occupancy =
      find_sample(after, "mc_kernel_packet_occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_EQ(occupancy->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(occupancy->bounds.size(), mc::kPacketWidth);

  if (GetParam() == mc::KernelMode::kPacket) {
    // Each loop iteration advances every active lane by one event.
    EXPECT_EQ(histogram_sum(after) - histogram_sum(before),
              static_cast<double>(interactions));
    // Each shard is one run: its first kPacketWidth launches fill the
    // lanes, every later launch is a refill (no launch dies at entry).
    std::uint64_t refills = 0;
    for (const std::uint64_t n : shards) {
      refills += n - std::min<std::uint64_t>(n, mc::kPacketWidth);
    }
    EXPECT_EQ(delta("mc_kernel_lane_refills_total"), refills);
  } else {
    EXPECT_EQ(delta("mc_kernel_lane_refills_total"), 0u);
    EXPECT_EQ(histogram_sum(after), histogram_sum(before));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, KernelRegistryDelta,
    testing::Values(mc::KernelMode::kScalar, mc::KernelMode::kPacket),
    [](const testing::TestParamInfo<mc::KernelMode>& info) {
      return mc::to_string(info.param);
    });

}  // namespace
}  // namespace phodis
