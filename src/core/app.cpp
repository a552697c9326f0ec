#include "core/app.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "dist/scheduler.hpp"
#include "exec/parallel.hpp"
#include "net/in_process.hpp"
#include "util/stopwatch.hpp"

namespace phodis::core {

std::vector<std::uint8_t> Algorithm::execute(
    std::uint64_t task_id, const std::vector<std::uint8_t>& payload) {
  const TaskPayload task = TaskPayload::decode(payload);
  const mc::Kernel kernel(task.spec.kernel);
  const exec::ParallelKernelRunner runner(kernel);
  return runner.run(task.task_photons, task.spec.seed, task_id).to_bytes();
}

void ExecutionOptions::validate() const {
  if (workers == 0) {
    throw std::invalid_argument("ExecutionOptions: need >= 1 worker");
  }
  transport_faults.validate();
  if (!(lease_duration_s > 0.0)) {
    throw std::invalid_argument("ExecutionOptions: lease must be > 0");
  }
  if (worker_death_probability < 0.0 || worker_death_probability >= 1.0) {
    throw std::invalid_argument(
        "ExecutionOptions: worker_death_probability must be in [0,1)");
  }
}

MonteCarloApp::MonteCarloApp(SimulationSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

std::vector<std::uint64_t> MonteCarloApp::plan_chunks(
    std::uint64_t chunk_photons, std::size_t workers) const {
  if (chunk_photons == 0) {
    chunk_photons = dist::suggest_chunk_size(spec_.photons, workers);
  }
  return dist::chunk_plan(spec_.photons, chunk_photons);
}

mc::SimulationTally MonteCarloApp::run_serial(
    std::uint64_t chunk_photons) const {
  return run_parallel(1, chunk_photons);
}

mc::SimulationTally MonteCarloApp::run_parallel(
    std::size_t threads, std::uint64_t chunk_photons) const {
  if (threads == 0) threads = exec::ThreadPool::default_thread_count();
  // Always the single-worker task plan: thread count must not move the
  // task boundaries, only how each task's shards are executed.
  const std::vector<std::uint64_t> chunks = plan_chunks(chunk_photons, 1);
  const mc::Kernel kernel(spec_.kernel);
  std::optional<exec::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const exec::ParallelKernelRunner runner(kernel,
                                          pool ? &*pool : nullptr);
  mc::SimulationTally merged = kernel.make_tally();
  for (std::size_t task_id = 0; task_id < chunks.size(); ++task_id) {
    merged.merge(runner.run(chunks[task_id], spec_.seed, task_id));
  }
  return merged;
}

std::vector<dist::TaskRecord> MonteCarloApp::build_tasks(
    std::uint64_t chunk_photons, std::size_t workers) const {
  const std::vector<std::uint64_t> chunks =
      plan_chunks(chunk_photons, workers);
  std::vector<dist::TaskRecord> tasks;
  tasks.reserve(chunks.size());
  for (std::size_t task_id = 0; task_id < chunks.size(); ++task_id) {
    TaskPayload payload;
    payload.spec = spec_;
    payload.task_photons = chunks[task_id];
    tasks.push_back(dist::TaskRecord{task_id, payload.encode()});
  }
  return tasks;
}

RunSummary MonteCarloApp::run_distributed(
    const ExecutionOptions& options) const {
  options.validate();
  util::Stopwatch stopwatch;

  const std::uint64_t chunk_photons =
      options.chunk_photons != 0
          ? options.chunk_photons
          : dist::suggest_chunk_size(spec_.photons, options.workers);
  PlanServer server(*this, chunk_photons, options.lease_duration_s);

  // The fleet: options.workers task slots, exactly as one phodis_worker
  // process runs them, over sockets to this process's own server.
  dist::WorkerLoopOptions worker_options;
  worker_options.name = "w";
  worker_options.death_probability = options.worker_death_probability;
  std::optional<PlanResult> result;
  const net::InProcessRun run = net::run_in_process(
      options.workers, options.transport_faults, &Algorithm::execute,
      worker_options, [&](dist::Transport& transport) {
        result.emplace(server.run(transport));
      });

  RunSummary summary{.tally = std::move(result->tally)};
  summary.tasks = server.task_count();
  summary.manager_stats = result->manager_stats;
  summary.frames_sent = run.frames_sent;
  summary.frames_dropped = run.frames_dropped;
  summary.bytes_sent = run.bytes_sent;
  summary.workers_died = run.fleet.deaths;
  summary.wall_seconds = stopwatch.seconds();
  return summary;
}

PlanServer::PlanServer(const MonteCarloApp& app, std::uint64_t chunk_photons,
                       double lease_s, std::string checkpoint_path)
    : checkpoint_path_(std::move(checkpoint_path)),
      manager_(lease_s),
      merger_(app.spec()) {
  const std::vector<dist::TaskRecord> tasks =
      app.build_tasks(chunk_photons, 1);
  task_count_ = tasks.size();
  manager_.set_result_sink(
      [this](std::uint64_t task_id, std::vector<std::uint8_t> bytes) {
        merger_.fold(task_id, std::move(bytes));
      });

  if (!checkpoint_path_.empty() && std::filesystem::exists(checkpoint_path_)) {
    const std::vector<std::uint8_t> merger_state =
        manager_.restore_from_file(checkpoint_path_);
    // The checkpoint holds every task's id and payload (spec, photons,
    // seed): it resumes only the plan that wrote it.
    if (manager_.tasks() != tasks) {
      throw std::runtime_error(checkpoint_path_ +
                               " was written for a different task plan; "
                               "refusing to resume");
    }
    merger_.restore(merger_state);
    resumed_ = true;
    return;
  }
  for (const dist::TaskRecord& task : tasks) {
    manager_.add_task(task.task_id, task.payload);
  }
}

PlanResult PlanServer::run(dist::Transport& transport,
                           dist::ServerLoopOptions options) {
  options.checkpoint_path = checkpoint_path_;
  options.checkpoint_state = [this] { return merger_.state_bytes(); };
  dist::run_server_loop(transport, manager_, options);
  if (merger_.frontier() != task_count_) {
    throw std::runtime_error("PlanServer: merged " +
                             std::to_string(merger_.frontier()) + " of " +
                             std::to_string(task_count_) + " tasks");
  }
  return PlanResult{merger_.merged(), manager_.stats()};
}

}  // namespace phodis::core
