// End-to-end tests of the distributed protocol: run_server_loop against
// a run_worker_slots fleet over sockets, both in this process — the
// pairing MonteCarloApp::run_distributed uses (net::run_in_process) —
// with fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "dist/runtime.hpp"
#include "net/in_process.hpp"

namespace phodis::dist {
namespace {

/// Executor that doubles every payload byte (deterministic, cheap).
std::vector<std::uint8_t> doubler(std::uint64_t /*task_id*/,
                                  const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out = payload;
  for (auto& b : out) b = static_cast<std::uint8_t>(b * 2);
  return out;
}

std::vector<TaskRecord> make_tasks(std::size_t count) {
  std::vector<TaskRecord> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back(TaskRecord{
        i, {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i + 1)}});
  }
  return tasks;
}

struct Fleet {
  std::size_t slots = 2;
  FaultSpec faults{};
  double lease_s = 30.0;
  double death_probability = 0.0;
  std::uint64_t death_seed = 2006;
};

struct Served {
  std::map<std::uint64_t, std::vector<std::uint8_t>> results;
  DataManagerStats stats;
  WorkerLoopOutcome outcome;
  std::uint64_t frames_dropped = 0;
};

/// Serve `tasks` to `fleet.slots` task slots of one run_worker_slots
/// call, over a net::Server and one net::Client per slot.
Served serve(const std::vector<TaskRecord>& tasks,
             const TaskExecutor& executor, const Fleet& fleet = {}) {
  DataManager manager(fleet.lease_s);
  for (const TaskRecord& task : tasks) {
    manager.add_task(task.task_id, task.payload);
  }
  Served served;
  manager.set_result_sink(
      [&served](std::uint64_t task_id, std::vector<std::uint8_t> bytes) {
        served.results.emplace(task_id, std::move(bytes));
      });
  WorkerLoopOptions options;
  options.name = "w";
  options.death_probability = fleet.death_probability;
  options.death_seed = fleet.death_seed;
  const net::InProcessRun run = net::run_in_process(
      fleet.slots, fleet.faults, executor, options,
      [&manager](Transport& transport) {
        run_server_loop(transport, manager);
      });
  served.stats = manager.stats();
  served.outcome = run.fleet;
  served.frames_dropped = run.frames_dropped;
  return served;
}

TEST(WorkerSlotsOverSockets, CompletesAllTasksSingleWorker) {
  const auto tasks = make_tasks(16);
  const Served served = serve(tasks, doubler, {.slots = 1});
  ASSERT_EQ(served.results.size(), 16u);
  for (const auto& task : tasks) {
    const auto& result = served.results.at(task.task_id);
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0], static_cast<std::uint8_t>(task.payload[0] * 2));
  }
  EXPECT_EQ(served.stats.completions, 16u);
}

TEST(WorkerSlotsOverSockets, CompletesWithManyWorkers) {
  const Served served = serve(make_tasks(64), doubler, {.slots = 8});
  EXPECT_EQ(served.results.size(), 64u);
  EXPECT_GE(served.outcome.tasks_executed, 64u);
}

TEST(WorkerSlotsOverSockets, EmptyTaskListTerminatesImmediately) {
  const Served served = serve({}, doubler);
  EXPECT_TRUE(served.results.empty());
  EXPECT_EQ(served.outcome.tasks_executed, 0u);
}

TEST(WorkerSlotsOverSockets, ExecutorSeesCorrectTaskIds) {
  std::atomic<std::uint64_t> id_sum{0};
  auto executor = [&](std::uint64_t task_id,
                      const std::vector<std::uint8_t>&) {
    id_sum.fetch_add(task_id);
    return std::vector<std::uint8_t>{};
  };
  serve(make_tasks(10), executor, {.slots = 3});
  // 0+1+..+9 = 45; duplicates possible only via lease expiry (none here,
  // leases are long and the executor is instant).
  EXPECT_EQ(id_sum.load(), 45u);
}

TEST(WorkerSlotsOverSockets, SurvivesDroppedFrames) {
  // Lease 0.2 s: fast recovery of lost assignments.
  const Served served =
      serve(make_tasks(40), doubler,
            {.slots = 4,
             .faults = {.drop_probability = 0.10, .seed = 11},
             .lease_s = 0.2});
  ASSERT_EQ(served.results.size(), 40u);
  EXPECT_GT(served.frames_dropped, 0u);
  // Every task completed exactly once despite retries.
  EXPECT_EQ(served.stats.completions, 40u);
}

TEST(WorkerSlotsOverSockets, SurvivesWorkerDeaths) {
  const Served served = serve(make_tasks(50), doubler,
                              {.slots = 6,
                               .lease_s = 0.2,
                               .death_probability = 0.2,
                               .death_seed = 17});
  ASSERT_EQ(served.results.size(), 50u);
  EXPECT_GT(served.outcome.deaths, 0u);
  // Deaths force re-issues, visible as lease expirations.
  EXPECT_GT(served.stats.lease_expirations, 0u);
}

TEST(WorkerSlotsOverSockets, FaultyRunProducesSameResultsAsCleanRun) {
  // Results are deterministic functions of (task_id, payload), so the
  // result *set* must be identical no matter what the network does.
  const auto tasks = make_tasks(30);
  const Served a = serve(tasks, doubler, {.slots = 3});
  const Served b =
      serve(tasks, doubler,
            {.slots = 3,
             .faults = {.drop_probability = 0.15, .seed = 23},
             .lease_s = 0.2,
             .death_probability = 0.1});
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [id, bytes] : a.results) {
    EXPECT_EQ(b.results.at(id), bytes) << "task " << id;
  }
}

TEST(WorkerSlotsOverSockets, LargePayloadsRoundTrip) {
  std::vector<TaskRecord> tasks;
  std::vector<std::uint8_t> big(100000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  tasks.push_back(TaskRecord{0, big});
  const Served served = serve(tasks, doubler, {.slots = 1});
  ASSERT_EQ(served.results.at(0).size(), big.size());
  EXPECT_EQ(served.results.at(0)[999],
            static_cast<std::uint8_t>(big[999] * 2));
}

}  // namespace
}  // namespace phodis::dist
