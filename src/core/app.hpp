// MonteCarloApp — the paper's application, tying the two classes together:
//
//   "The distributed Monte Carlo application consists of two classes.
//    The DataManager, which resides on the server, assigns simulations to
//    client PCs and processes the returned results. The Algorithm, which
//    resides on the client PCs, takes in parameters from the DataManager,
//    performs Monte Carlo simulations and returns the results."
//
// The app splits a photon budget into tasks and runs them serially, or
// through PlanServer (the DataManager side) over sockets: to the
// in-process fleet of run_distributed (net::run_in_process), or to
// phodis_worker processes. Tallies merge **in task-id order**, so for a
// given task plan (chunk size) the final result is bitwise identical
// regardless of worker count, scheduling, injected faults, or whether
// the run was serial — the reproducibility contract of README.md's
// "Reproducibility contract" section. Note the task plan itself is only
// fixed when chunk_photons is explicit: auto-chunking (chunk_photons =
// 0) scales the chunk size with the worker count.
//
// Inside a task, photons run as the fixed shard plan of
// exec::ParallelKernelRunner (jump()-derived sub-streams, merged in
// shard order), so a task's tally is also bitwise identical whether its
// shards ran on 1 thread or 16 — run_serial and run_parallel at every
// thread count produce the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/merger.hpp"
#include "core/spec.hpp"
#include "dist/datamanager.hpp"
#include "dist/runtime.hpp"
#include "mc/tally.hpp"

namespace phodis::core {

/// Client-side class (the paper's `Algorithm`): decodes a task payload,
/// reconstructs the kernel, runs this task's photons on the task's own
/// RNG stream (sharded, see exec::ParallelKernelRunner), and returns the
/// serialised partial tally.
class Algorithm {
 public:
  /// Single-threaded execution of the task's shard plan.
  static std::vector<std::uint8_t> execute(
      std::uint64_t task_id, const std::vector<std::uint8_t>& payload);
};

struct ExecutionOptions {
  /// In-process task slots (dist::run_worker_slots); each runs one task
  /// at a time on its own thread.
  std::size_t workers = 2;
  /// Photons per task; 0 picks a size giving each worker ~4 pulls.
  std::uint64_t chunk_photons = 0;
  double lease_duration_s = 5.0;
  dist::FaultSpec transport_faults;
  double worker_death_probability = 0.0;

  void validate() const;
};

struct RunSummary {
  mc::SimulationTally tally;
  std::uint64_t tasks = 0;
  double wall_seconds = 0.0;
  dist::DataManagerStats manager_stats{};
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::size_t workers_died = 0;
};

class MonteCarloApp {
 public:
  explicit MonteCarloApp(SimulationSpec spec);

  /// Single-threaded execution of the same task plan; merging in task-id
  /// order makes this bitwise identical to run_distributed with the same
  /// explicit chunk_photons (0 auto-sizes for a single worker, which in
  /// general differs from the multi-worker auto plan). Equivalent to
  /// run_parallel(1, chunk_photons).
  mc::SimulationTally run_serial(std::uint64_t chunk_photons = 0) const;

  /// Same task plan as run_serial, with each task's shards spread over
  /// `threads` pool threads (0 = one per core). Bitwise identical to
  /// run_serial for every thread count.
  mc::SimulationTally run_parallel(std::size_t threads,
                                   std::uint64_t chunk_photons = 0) const;

  /// Full platform execution in this process: a PlanServer and a fleet
  /// of options.workers task slots over sockets (net::run_in_process),
  /// with optional fault injection. The summary's frame and byte counts
  /// are the server's plus every slot's.
  RunSummary run_distributed(const ExecutionOptions& options) const;

  /// The task plan for a given chunk size (0 = auto for `workers`).
  std::vector<std::uint64_t> plan_chunks(std::uint64_t chunk_photons,
                                         std::size_t workers) const;

  /// Encode the plan into TaskRecords — what PlanServer serves.
  std::vector<dist::TaskRecord> build_tasks(std::uint64_t chunk_photons,
                                            std::size_t workers) const;

  const SimulationSpec& spec() const noexcept { return spec_; }

 private:
  SimulationSpec spec_;
};

/// What a served plan produced.
struct PlanResult {
  /// Every task's tally, merged in task-id order.
  mc::SimulationTally tally;
  dist::DataManagerStats manager_stats;
};

/// The server side of one plan run (the paper's DataManager), shared by
/// phodis_server and MonteCarloApp::run_distributed: a DataManager over
/// the plan's tasks, every first-accepted result folded into an
/// IncrementalTallyMerger, optionally checkpointed so a killed server
/// resumes. Set-up (task build, resume) happens in the constructor, so
/// a socket server can bind after it.
class PlanServer {
 public:
  /// Builds `app`'s tasks at `chunk_photons` (0 = auto for one worker,
  /// as run_serial), leased for `lease_s`. With a `checkpoint_path`: if
  /// that file exists the run resumes from it, provided its task table
  /// equals these tasks, id for id and payload for payload (else
  /// std::runtime_error: it is another plan's checkpoint).
  PlanServer(const MonteCarloApp& app, std::uint64_t chunk_photons,
             double lease_s, std::string checkpoint_path = {});

  std::size_t task_count() const noexcept { return task_count_; }
  /// True when the constructor restored a checkpoint.
  bool resumed() const noexcept { return resumed_; }
  /// Tasks complete so far (after a resume, those the checkpoint held).
  std::uint64_t completed_count() const { return manager_.completed_count(); }

  /// Serve the remaining tasks over `transport` with dist::run_server_loop
  /// (this server's checkpoint path and merger state replace those fields
  /// of `options`), check that every task completed, and return the
  /// merged tally. Throws whatever the loop throws (transport closed,
  /// checkpoint I/O). Call once.
  PlanResult run(dist::Transport& transport,
                 dist::ServerLoopOptions options = {});

 private:
  std::size_t task_count_ = 0;
  std::string checkpoint_path_;
  bool resumed_ = false;
  dist::DataManager manager_;
  IncrementalTallyMerger merger_;
};

}  // namespace phodis::core
