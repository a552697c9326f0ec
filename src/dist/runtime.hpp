// The distributed runtime: the RequestWork/AssignTask/TaskResult
// protocol, factored into a server loop and a worker loop that run over
// any Transport — the in-process loopback or real sockets. The server
// side is core::PlanServer, which runs run_server_loop: the real-time
// driver of dist::ServerCore, which decides every reply. The worker side
// is run_worker_slots, one run_worker_loop per task slot, each over its
// own transport (a net::Client in phodis_worker, a handle on the shared
// loopback in MonteCarloApp::run_distributed).
//
// Faults are first-class: frames may be dropped (FaultSpec) and workers
// may die mid-assignment (death_probability, or a real SIGKILL); lease
// expiry plus exactly-once completion in the DataManager guarantee every
// task's result is collected exactly once regardless. A dead worker
// rejoins immediately under a fresh name (the fleet keeps its size),
// modelling the paper's non-dedicated client churn.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/datamanager.hpp"
#include "dist/message.hpp"
#include "dist/transport.hpp"

namespace phodis::dist {

/// Computes a task's result bytes from (task_id, payload). Must be
/// thread-safe; called concurrently from worker threads.
using TaskExecutor = std::function<std::vector<std::uint8_t>(
    std::uint64_t, const std::vector<std::uint8_t>&)>;

struct ServerLoopOptions {
  /// Persist the DataManager (tasks, completion bits, results) here so a
  /// restarted server resumes instead of recomputing. Empty = off.
  std::string checkpoint_path;
  /// Checkpoint after this many new completions (and always once at the
  /// end of the run).
  std::uint64_t checkpoint_every = 16;
  /// Snapshot of the result sink's reduced state, stored inside each
  /// checkpoint (streaming-merge mode, see DataManager::set_result_sink);
  /// empty = no extra state. Called on the server-loop thread right
  /// before the checkpoint is written.
  std::function<std::vector<std::uint8_t>()> checkpoint_state;

  /// Called once per MetricsSnapshot frame with the sender name and the
  /// raw payload (an encoded obs::Snapshot); empty = frames counted but
  /// otherwise ignored. Runs on the server-loop thread.
  std::function<void(const std::string& sender,
                     const std::vector<std::uint8_t>& payload)>
      metrics_snapshot_sink;
  /// After the Shutdown broadcast, keep receiving for this long so the
  /// workers' final MetricsSnapshot frames (sent on Shutdown receipt) can
  /// land. 0 = no drain. Best-effort by design: a killed worker or a
  /// dropped frame just means one fewer snapshot in the merged report.
  std::int64_t metrics_drain_ms = 0;

  void validate() const;
};

/// Drive `manager`'s tasks to completion over `transport` on the calling
/// thread: receive on dist::kServerEndpoint (5 ms timeout, which also
/// bounds the lease-expiry poll interval), step a ServerCore with each
/// frame on the wall clock and send its replies — lease tasks to whoever
/// asks, accept first results, requeue expired leases. Before returning,
/// every endpoint that ever requested work is sent a Shutdown frame.
/// Results land in the manager (DataManager::results()).
void run_server_loop(Transport& transport, DataManager& manager,
                     const ServerLoopOptions& options = {});

struct WorkerLoopOptions {
  /// This worker's endpoint name (the sender field of its frames).
  std::string name = "worker";
  /// Per-assignment probability that the worker "dies" instead of
  /// executing, in [0, 1): it abandons the lease and rejoins under a
  /// fresh name, exactly like a real client crashing and rebooting.
  double death_probability = 0.0;
  /// Seed of the death stream (independent of transport faults).
  std::uint64_t death_seed = 2006;
  /// Extra liveness check polled each iteration (in-process pools use it
  /// to stop workers whose Shutdown frame was lost); empty = always on.
  std::function<bool()> keep_running;

  void validate() const;
};

struct WorkerLoopOutcome {
  std::size_t tasks_executed = 0;
  std::size_t deaths = 0;
  /// True when the loop ended on a Shutdown frame (vs transport closed
  /// or keep_running() false).
  bool saw_shutdown = false;
  /// The name after any death/rebirth renames.
  std::string final_name;
};

/// Pull and execute tasks over `transport` until a Shutdown frame
/// arrives, the transport closes, or keep_running() turns false. Each
/// request to dist::kServerEndpoint waits 20 ms for its reply before it
/// is sent again, so lost frames are retried well inside even sub-second
/// leases; a NoWork reply (pool momentarily empty) pauses the loop 2 ms.
WorkerLoopOutcome run_worker_loop(Transport& transport,
                                  const TaskExecutor& executor,
                                  const WorkerLoopOptions& options);

/// The seed of slot `slot`'s fault streams (frame drops, deaths) in a
/// worker with `slots` slots: `seed` itself for a single slot, else
/// util::mix64(seed, slot), so slots never drop or die in lockstep.
std::uint64_t slot_seed(std::uint64_t seed, std::size_t slot,
                        std::size_t slots);

/// Builds the transport of task slot `slot`, whose endpoint is `name`.
using SlotTransportFactory = std::function<std::unique_ptr<Transport>(
    std::size_t slot, const std::string& name)>;

/// One worker process as `slots` independent lease holders: slot k runs
/// run_worker_loop on its own thread (slot 0 on the calling thread) over
/// its own make_transport(k, name), executing one task at a time, so the
/// server sees `slots` ordinary workers. Slot 0 is named options.name and
/// slot k >= 1 "<options.name>.<k>"; slot k dies on the stream
/// slot_seed(options.death_seed, k, slots).
///
/// Once any slot sees Shutdown the run is over: the others stop at
/// their next loop check instead of spending their reconnect budget.
/// With send_metrics_snapshot, the process encodes its obs registry
/// (kernel counters included) and ships it to the server as one
/// MetricsSnapshot; slots share the registry, so it is one per process,
/// not one per slot. The first slot to see Shutdown sends it on its own
/// transport right away (a slot still busy with a duplicate lease would
/// otherwise hold it past the server's drain window). Only separate
/// worker processes (phodis_worker) should set it: in-process slots
/// share the server's registry. Returns, after every slot has stopped,
/// the slots' summed task and death counts, saw_shutdown if any slot saw
/// Shutdown, and slot 0's final name. An exception from any slot stops
/// the others and is rethrown after they have joined.
WorkerLoopOutcome run_worker_slots(std::size_t slots,
                                   const SlotTransportFactory& make_transport,
                                   const TaskExecutor& executor,
                                   const WorkerLoopOptions& options,
                                   bool send_metrics_snapshot = false);

}  // namespace phodis::dist
