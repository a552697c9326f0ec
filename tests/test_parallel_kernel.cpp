// The determinism contract of the parallel execution subsystem: the same
// seed at 1, 2, 4, and 8 threads produces bitwise-identical tallies,
// equal to run_serial — through the runner directly and through
// MonteCarloApp::run_parallel.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/app.hpp"
#include "exec/parallel.hpp"
#include "exec/threadpool.hpp"
#include "mc/presets.hpp"

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

}  // namespace
}  // namespace phodis
