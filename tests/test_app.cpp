// Tests for MonteCarloApp: the headline reproducibility property (serial
// == distributed, bitwise, under any worker count and fault injection)
// plus execution-option handling, the incremental result merger, and
// PlanServer's checkpoint resume and refusal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <optional>

#include "core/app.hpp"
#include "core/merger.hpp"
#include "mc/presets.hpp"
#include "net/in_process.hpp"
#include "obs/metrics.hpp"

namespace phodis::core {
namespace {

namespace fs = std::filesystem;

SimulationSpec small_spec(std::uint64_t photons = 4000) {
  SimulationSpec spec;
  // Light medium so the test suite stays fast.
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
  spec.seed = 99;
  return spec;
}

TEST(ExecutionOptions, Validation) {
  ExecutionOptions options;
  options.workers = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.workers = 2;
  options.worker_death_probability = 1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.worker_death_probability = 0.0;
  options.lease_duration_s = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(App, PlanChunksCoversBudgetExactly) {
  MonteCarloApp app(small_spec(1000));
  const auto chunks = app.plan_chunks(128, 1);
  std::uint64_t total = 0;
  for (auto c : chunks) total += c;
  EXPECT_EQ(total, 1000u);
  // Auto chunking gives each worker several pulls.
  const auto auto_chunks = app.plan_chunks(0, 4);
  EXPECT_GE(auto_chunks.size(), 8u);
}

TEST(App, SerialRunAccountsForAllPhotons) {
  MonteCarloApp app(small_spec(2000));
  const mc::SimulationTally tally = app.run_serial(500);
  EXPECT_EQ(tally.photons_launched(), 2000u);
  EXPECT_LT(tally.weight_conservation_error(), 1e-6 * 2000);
}

TEST(App, SerialIsChunkSizeInvariantStatistically) {
  // Different chunk sizes use different RNG stream layouts, so results
  // differ bitwise but must agree statistically.
  MonteCarloApp app(small_spec(20000));
  const double rd_small = app.run_serial(1000).diffuse_reflectance();
  const double rd_large = app.run_serial(10000).diffuse_reflectance();
  EXPECT_NEAR(rd_small, rd_large, 0.02);
}

TEST(App, DistributedMatchesSerialBitwise) {
  MonteCarloApp app(small_spec(3000));
  const mc::SimulationTally serial = app.run_serial(250);

  ExecutionOptions options;
  options.workers = 4;
  options.chunk_photons = 250;
  const RunSummary summary = app.run_distributed(options);

  EXPECT_EQ(summary.tally.photons_launched(), serial.photons_launched());
  // Bitwise identical: same chunks, same per-task streams, same merge order.
  EXPECT_EQ(summary.tally.diffuse_reflectance(),
            serial.diffuse_reflectance());
  EXPECT_EQ(summary.tally.absorbed_fraction(), serial.absorbed_fraction());
  EXPECT_EQ(summary.tally.mean_detected_pathlength(),
            serial.mean_detected_pathlength());
  EXPECT_EQ(summary.tally.photons_detected(), serial.photons_detected());
}

class WorkerCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerCountSweep, ResultIndependentOfWorkerCount) {
  MonteCarloApp app(small_spec(2000));
  ExecutionOptions options;
  options.workers = GetParam();
  options.chunk_photons = 200;
  const RunSummary summary = app.run_distributed(options);

  ExecutionOptions baseline;
  baseline.workers = 1;
  baseline.chunk_photons = 200;
  const RunSummary reference = app.run_distributed(baseline);

  EXPECT_EQ(summary.tally.diffuse_reflectance(),
            reference.tally.diffuse_reflectance());
  EXPECT_EQ(summary.tally.photons_detected(),
            reference.tally.photons_detected());
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountSweep,
                         ::testing::Values(1, 2, 3, 8));

TEST(App, FaultInjectionDoesNotChangeTheResult) {
  MonteCarloApp app(small_spec(2000));
  ExecutionOptions clean;
  clean.workers = 3;
  clean.chunk_photons = 200;
  const RunSummary a = app.run_distributed(clean);

  ExecutionOptions faulty = clean;
  faulty.transport_faults.drop_probability = 0.1;
  faulty.transport_faults.seed = 5;
  faulty.worker_death_probability = 0.15;
  faulty.lease_duration_s = 0.2;
  const RunSummary b = app.run_distributed(faulty);

  EXPECT_EQ(a.tally.diffuse_reflectance(), b.tally.diffuse_reflectance());
  EXPECT_EQ(a.tally.absorbed_fraction(), b.tally.absorbed_fraction());
  EXPECT_EQ(a.tally.photons_launched(), b.tally.photons_launched());
}

TEST(App, ReportsPlatformStatistics) {
  MonteCarloApp app(small_spec(1000));
  ExecutionOptions options;
  options.workers = 2;
  options.chunk_photons = 100;
  const RunSummary summary = app.run_distributed(options);
  EXPECT_EQ(summary.tasks, 10u);
  EXPECT_EQ(summary.manager_stats.completions, 10u);
  EXPECT_GT(summary.frames_sent, 20u);
  EXPECT_GT(summary.bytes_sent, 0u);
  EXPECT_GT(summary.wall_seconds, 0.0);
}

TEST(App, DistributedRunGoesThroughTheSocketTransport) {
  const MonteCarloApp app(small_spec(1000));
  obs::Counter& server_frames = obs::registry().counter(
      "net_frames_sent_total", {{"side", "server"}});
  obs::Counter& client_frames = obs::registry().counter(
      "net_frames_sent_total", {{"side", "client"}});
  const std::uint64_t server_before = server_frames.value();
  const std::uint64_t client_before = client_frames.value();
  ExecutionOptions options;
  options.workers = 2;
  options.chunk_photons = 250;
  const RunSummary summary = app.run_distributed(options);

  const std::uint64_t server_sent = server_frames.value() - server_before;
  const std::uint64_t client_sent = client_frames.value() - client_before;
  EXPECT_GT(server_sent, 0u);
  EXPECT_GT(client_sent, 0u);
  // The summary counts every frame either side sent.
  EXPECT_EQ(summary.frames_sent, server_sent + client_sent);
  EXPECT_EQ(summary.tally.to_bytes(), app.run_serial(250).to_bytes());
}

TEST(IncrementalTallyMerger, OutOfOrderFoldMatchesSerialBitwise) {
  const SimulationSpec spec = small_spec(3000);
  const MonteCarloApp app(spec);
  const auto tasks = app.build_tasks(500, 1);
  std::map<std::uint64_t, std::vector<std::uint8_t>> results;
  for (const auto& task : tasks) {
    results.emplace(task.task_id,
                    Algorithm::execute(task.task_id, task.payload));
  }

  // Deliver in a scrambled arrival order; the reorder buffer must keep
  // the fold in task-id order and hence bitwise equal to the serial run.
  IncrementalTallyMerger merger(spec);
  const std::vector<std::uint64_t> arrival = {2, 0, 1, 5, 4, 3};
  ASSERT_EQ(arrival.size(), tasks.size());
  for (std::uint64_t id : arrival) merger.fold(id, results.at(id));
  EXPECT_EQ(merger.frontier(), tasks.size());
  EXPECT_EQ(merger.buffered_count(), 0u);
  EXPECT_EQ(merger.merged().to_bytes(), app.run_serial(500).to_bytes());
}

TEST(IncrementalTallyMerger, BuffersAheadOfTheFrontier) {
  const SimulationSpec spec = small_spec(1000);
  const MonteCarloApp app(spec);
  const auto tasks = app.build_tasks(500, 1);
  ASSERT_EQ(tasks.size(), 2u);
  IncrementalTallyMerger merger(spec);
  merger.fold(1, Algorithm::execute(1, tasks[1].payload));
  EXPECT_EQ(merger.frontier(), 0u);  // waiting for task 0
  EXPECT_EQ(merger.buffered_count(), 1u);
  merger.fold(0, Algorithm::execute(0, tasks[0].payload));
  EXPECT_EQ(merger.frontier(), 2u);
  EXPECT_EQ(merger.buffered_count(), 0u);
}

TEST(IncrementalTallyMerger, StateRoundTripResumesMidRun) {
  const SimulationSpec spec = small_spec(3000);
  const MonteCarloApp app(spec);
  const auto tasks = app.build_tasks(500, 1);
  std::map<std::uint64_t, std::vector<std::uint8_t>> results;
  for (const auto& task : tasks) {
    results.emplace(task.task_id,
                    Algorithm::execute(task.task_id, task.payload));
  }

  IncrementalTallyMerger first(spec);
  first.fold(0, results.at(0));
  first.fold(3, results.at(3));  // stays buffered across the checkpoint

  IncrementalTallyMerger resumed(spec);
  resumed.restore(first.state_bytes());
  EXPECT_EQ(resumed.frontier(), 1u);
  EXPECT_EQ(resumed.buffered_count(), 1u);
  resumed.fold(0, results.at(0));  // replay of a folded task: ignored
  for (std::uint64_t id : {1u, 2u, 4u, 5u}) resumed.fold(id, results.at(id));

  EXPECT_EQ(resumed.frontier(), tasks.size());
  EXPECT_EQ(resumed.merged().to_bytes(), app.run_serial(500).to_bytes());
}

TEST(IncrementalTallyMerger, RestoreRequiresFreshMerger) {
  const SimulationSpec spec = small_spec(1000);
  const MonteCarloApp app(spec);
  const auto tasks = app.build_tasks(500, 1);
  IncrementalTallyMerger merger(spec);
  merger.fold(0, Algorithm::execute(0, tasks[0].payload));
  EXPECT_THROW(merger.restore(merger.state_bytes()), std::logic_error);
}

TEST(IncrementalTallyMerger, RestoreRejectsAStateOfAnotherTallyConfig) {
  SimulationSpec gridded = small_spec(1000);
  gridded.kernel.tally.enable_fluence_grid = true;
  gridded.kernel.tally.fluence_spec = mc::GridSpec::cube(10, 10.0, 10.0);
  const IncrementalTallyMerger other(gridded);

  const SimulationSpec spec = small_spec(1000);
  const auto tasks = MonteCarloApp(spec).build_tasks(500, 1);
  IncrementalTallyMerger merger(spec);
  EXPECT_THROW(merger.restore(other.state_bytes()), std::invalid_argument);
  // Refused before any change: the merger still folds this spec's tasks.
  merger.fold(0, Algorithm::execute(0, tasks[0].payload));
  EXPECT_EQ(merger.frontier(), 1u);
}

TEST(IncrementalTallyMerger, RestoreRejectsABufferedIdNotAboveTheFrontier) {
  const SimulationSpec spec = small_spec(1000);
  const auto state_with_buffered = [&spec](std::uint64_t buffered_id) {
    util::ByteWriter writer;
    writer.u64(2);  // frontier
    IncrementalTallyMerger(spec).merged().serialize(writer);
    writer.u64(1);
    writer.u64(buffered_id);
    writer.blob({});
    return writer.take();
  };
  for (std::uint64_t id : {1u, 2u}) {
    IncrementalTallyMerger merger(spec);
    EXPECT_THROW(merger.restore(state_with_buffered(id)),
                 std::invalid_argument)
        << "buffered id " << id;
    EXPECT_EQ(merger.frontier(), 0u);
  }
  IncrementalTallyMerger merger(spec);
  merger.restore(state_with_buffered(3));
  EXPECT_EQ(merger.frontier(), 2u);
  EXPECT_EQ(merger.buffered_count(), 1u);
}

TEST(App, GridsSurviveDistributionAndMerge) {
  SimulationSpec spec = small_spec(2000);
  spec.kernel.tally.enable_fluence_grid = true;
  spec.kernel.tally.fluence_spec = mc::GridSpec::cube(10, 10.0, 10.0);
  MonteCarloApp app(spec);

  const mc::SimulationTally serial = app.run_serial(250);
  ExecutionOptions options;
  options.workers = 3;
  options.chunk_photons = 250;
  const RunSummary distributed = app.run_distributed(options);

  ASSERT_NE(serial.fluence_grid(), nullptr);
  ASSERT_NE(distributed.tally.fluence_grid(), nullptr);
  EXPECT_EQ(distributed.tally.fluence_grid()->total(),
            serial.fluence_grid()->total());
}

/// Serve `server`'s plan to `slots` in-process task slots running
/// `executor`, over sockets as run_distributed does. A slot's failure
/// shuts the server down; its exception is the one rethrown.
PlanResult serve(PlanServer& server, const dist::TaskExecutor& executor,
                 std::size_t slots = 2,
                 const dist::ServerLoopOptions& options = {}) {
  std::optional<PlanResult> result;
  net::run_in_process(slots, {}, executor, dist::WorkerLoopOptions{},
                      [&](dist::Transport& transport) {
                        result.emplace(server.run(transport, options));
                      });
  return std::move(*result);
}

/// A checkpoint path in the temp dir with no file or temp file left from
/// an earlier run.
std::string fresh_checkpoint_path(const std::string& name) {
  const std::string path =
      (fs::temp_directory_path() /
       ("phodis_plan_" + name + "_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  for (const char* suffix : {"", ".tmp"}) fs::remove_all(path + suffix);
  return path;
}

TEST(PlanServer, ResumesAKilledRunFromItsCheckpoint) {
  const MonteCarloApp app(small_spec(3000));
  const std::string path = fresh_checkpoint_path("resume");
  {
    // The only worker fails on its third task. It asks for that task
    // after sending the second result, so the server has accepted and
    // checkpointed two results when the slot's failure shuts it down.
    PlanServer first(app, 500, 30.0, path);
    EXPECT_FALSE(first.resumed());
    std::atomic<int> calls{0};
    const dist::TaskExecutor fails_third =
        [&calls](std::uint64_t task_id,
                 const std::vector<std::uint8_t>& payload) {
          if (calls.fetch_add(1) == 2) throw std::runtime_error("lost");
          return Algorithm::execute(task_id, payload);
        };
    dist::ServerLoopOptions options;
    options.checkpoint_every = 1;
    EXPECT_THROW(serve(first, fails_third, 1, options), std::runtime_error);
  }
  PlanServer second(app, 500, 30.0, path);
  EXPECT_TRUE(second.resumed());
  EXPECT_EQ(second.task_count(), 6u);
  EXPECT_EQ(second.completed_count(), 2u);
  const PlanResult result = serve(second, &Algorithm::execute);
  EXPECT_EQ(result.tally.to_bytes(), app.run_serial(500).to_bytes());
  fs::remove(path);
}

TEST(PlanServer, RefusesTheCheckpointOfAnotherPlan) {
  SimulationSpec spec = small_spec(2000);
  const MonteCarloApp app(spec);
  const std::string path = fresh_checkpoint_path("refuse");
  {
    PlanServer first(app, 500, 30.0, path);
    serve(first, &Algorithm::execute);
  }
  // Same photons, chunk, seed and kernel mode, but another tally config.
  spec.kernel.tally.enable_fluence_grid = true;
  spec.kernel.tally.fluence_spec = mc::GridSpec::cube(10, 10.0, 10.0);
  const MonteCarloApp other(spec);
  EXPECT_THROW(PlanServer(other, 500, 30.0, path), std::runtime_error);
  // The plan that wrote the checkpoint still resumes it: all done.
  const PlanServer same(app, 500, 30.0, path);
  EXPECT_TRUE(same.resumed());
  EXPECT_EQ(same.completed_count(), same.task_count());
  fs::remove(path);
}

TEST(PlanServer, SurfacesACheckpointWriteFailureFromRun) {
  // A checkpoint is written to <path>.tmp, then renamed; a directory
  // there fails every write.
  const MonteCarloApp app(small_spec(2000));
  const std::string path = fresh_checkpoint_path("unwritable");
  fs::create_directory(path + ".tmp");
  PlanServer server(app, 500, 30.0, path);
  dist::ServerLoopOptions options;
  options.checkpoint_every = 1;
  EXPECT_THROW(serve(server, &Algorithm::execute, 2, options),
               std::runtime_error);
  for (const char* suffix : {"", ".tmp"}) fs::remove_all(path + suffix);
}

}  // namespace
}  // namespace phodis::core
