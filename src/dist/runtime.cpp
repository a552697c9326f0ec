#include "dist/runtime.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "dist/server_core.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace phodis::dist {

namespace {

/// One messages-by-type counter handle per wire tag, resolved up front so
/// the receive loops increment an atomic without re-touching the registry.
std::vector<obs::Counter*> message_counters(const std::string& name) {
  std::vector<obs::Counter*> counters;
  for (std::uint8_t tag = 0;
       tag <= static_cast<std::uint8_t>(MessageType::kMetricsSnapshot);
       ++tag) {
    counters.push_back(&obs::registry().counter(
        name, {{"type", to_string(static_cast<MessageType>(tag))}}));
  }
  return counters;
}

/// Server receive timeout; also bounds the lease-expiry poll interval.
constexpr std::int64_t kPollTimeoutMs = 5;
/// How long a worker waits for a reply before requesting again: short,
/// so lost frames are retried well inside even sub-second leases.
constexpr std::int64_t kReplyTimeoutMs = 20;
/// A worker's pause after a NoWork reply (pool momentarily empty).
constexpr std::int64_t kNoWorkBackoffMs = 2;

/// The endpoint name of task slot `slot` of a worker named `name`.
std::string slot_name(const std::string& name, std::size_t slot) {
  return slot == 0 ? name : name + "." + std::to_string(slot);
}

}  // namespace

void ServerLoopOptions::validate() const {
  if (!checkpoint_path.empty() && checkpoint_every == 0) {
    throw std::invalid_argument(
        "ServerLoopOptions: checkpoint_every must be > 0");
  }
  if (metrics_drain_ms < 0) {
    throw std::invalid_argument(
        "ServerLoopOptions: metrics_drain_ms must be >= 0");
  }
}

void WorkerLoopOptions::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("WorkerLoopOptions: name must be set");
  }
  if (death_probability < 0.0 || death_probability >= 1.0) {
    throw std::invalid_argument(
        "WorkerLoopOptions: death_probability must be in [0, 1)");
  }
}

void run_server_loop(Transport& transport, DataManager& manager,
                     const ServerLoopOptions& options) {
  options.validate();
  util::Stopwatch clock;
  ServerCore core(manager, options.checkpoint_path.empty()
                               ? 0
                               : options.checkpoint_every);
  // Observability handles (all out-of-band of the protocol): messages by
  // wire type, scheduling events, and per-task spans measured against the
  // trace recorder's epoch.
  obs::Registry& reg = obs::registry();
  const std::vector<obs::Counter*> msg_counters =
      message_counters("dist_server_messages_total");
  obs::Counter& leases_issued = reg.counter("dist_server_leases_issued_total");
  obs::Counter& releases = reg.counter("dist_server_releases_total");
  obs::Counter& completions = reg.counter("dist_server_completions_total");
  obs::Counter& expirations =
      reg.counter("dist_server_lease_expirations_total");
  obs::Counter& checkpoint_writes =
      reg.counter("dist_server_checkpoint_writes_total");
  obs::Counter& snapshots_received =
      reg.counter("dist_server_metrics_snapshots_total");
  std::set<std::uint64_t> ever_leased;
  std::map<std::uint64_t, double> task_trace_start_s;
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();

  const auto write_checkpoint = [&] {
    manager.checkpoint_to_file(
        options.checkpoint_path,
        options.checkpoint_state ? options.checkpoint_state()
                                 : std::vector<std::uint8_t>{});
    checkpoint_writes.inc();
  };
  // One received frame through the core: count it, carry out the step's
  // effects, then send its reply.
  const auto handle = [&](Message msg, double now) {
    msg_counters[static_cast<std::uint8_t>(msg.type)]->inc();
    const std::string sender = msg.sender;
    ServerStep step = core.on_message(std::move(msg), now);
    if (step.reply && step.reply->message.type == MessageType::kAssignTask) {
      const std::uint64_t task_id = step.reply->message.task_id;
      leases_issued.inc();
      if (!ever_leased.insert(task_id).second) releases.inc();
      if (recorder.enabled()) {
        task_trace_start_s[task_id] = recorder.elapsed_s();
      }
    }
    if (step.accepted_task) {
      const std::uint64_t task_id = *step.accepted_task;
      completions.inc();
      if (recorder.enabled()) {
        // Server-side span of the task's last lease: from the assign
        // that won to the first accepted result.
        const auto it = task_trace_start_s.find(task_id);
        if (it != task_trace_start_s.end()) {
          obs::TraceEvent event;
          event.name = "task";
          event.category = "dist";
          event.ts_us = static_cast<std::uint64_t>(it->second * 1e6);
          const double dur_s = recorder.elapsed_s() - it->second;
          event.dur_us =
              dur_s > 0.0 ? static_cast<std::uint64_t>(dur_s * 1e6) : 0;
          event.tid = obs::TraceRecorder::thread_id();
          event.args.emplace_back("task_id", std::to_string(task_id));
          event.args.emplace_back("worker", sender);
          recorder.record(std::move(event));
        }
      }
      task_trace_start_s.erase(task_id);
    }
    if (step.checkpoint_due) write_checkpoint();
    if (step.metrics_snapshot) {
      snapshots_received.inc();
      if (options.metrics_snapshot_sink) {
        options.metrics_snapshot_sink(step.metrics_snapshot->sender,
                                      step.metrics_snapshot->payload);
      }
    }
    if (step.reply) transport.send(step.reply->to, step.reply->message);
  };

  while (!core.done()) {
    auto msg = transport.receive(kServerEndpoint, kPollTimeoutMs);
    const double now = clock.seconds();
    expirations.inc(core.on_tick(now));
    if (!msg) {
      if (transport.closed()) {
        throw std::runtime_error(
            "run_server_loop: transport closed with tasks outstanding");
      }
      continue;
    }
    handle(std::move(*msg), now);
  }

  if (!options.checkpoint_path.empty()) {
    write_checkpoint();
  }

  // Tell every worker we ever heard from to exit; whoever misses the
  // frame (drop, death, reconnect) gets a Shutdown reply to its next
  // RequestWork or sees the transport close.
  for (const Outgoing& shutdown_msg : core.shutdown_broadcast()) {
    transport.send(shutdown_msg.to, shutdown_msg.message);
  }

  // Post-shutdown drain: workers that opted into send_metrics_snapshot
  // ship their registry on Shutdown receipt; give those frames a bounded
  // window to land. The core keeps answering: a late RequestWork (a
  // reconnecting worker that missed the broadcast) gets a Shutdown so it
  // can exit, and a late TaskResult is dropped.
  if (options.metrics_drain_ms > 0) {
    util::Stopwatch drain_clock;
    while (drain_clock.milliseconds() < options.metrics_drain_ms) {
      auto msg = transport.receive(kServerEndpoint, kPollTimeoutMs);
      if (!msg) {
        if (transport.closed()) break;
        continue;
      }
      handle(std::move(*msg), clock.seconds());
    }
  }
}

WorkerLoopOutcome run_worker_loop(Transport& transport,
                                  const TaskExecutor& executor,
                                  const WorkerLoopOptions& options) {
  options.validate();
  util::Xoshiro256pp death_rng(options.death_seed);
  WorkerLoopOutcome outcome;
  std::string name = options.name;
  std::size_t incarnation = 0;

  obs::Registry& reg = obs::registry();
  obs::Counter& tasks_executed = reg.counter("dist_worker_tasks_total");
  obs::Counter& deaths = reg.counter("dist_worker_deaths_total");
  obs::Counter& no_work = reg.counter("dist_worker_no_work_total");
  obs::Counter& reply_timeouts =
      reg.counter("dist_worker_reply_timeouts_total");

  const auto alive = [&] {
    return !transport.closed() &&
           (!options.keep_running || options.keep_running());
  };

  while (alive()) {
    Message request;
    request.type = MessageType::kRequestWork;
    request.sender = name;
    transport.send(kServerEndpoint, request);
    const auto reply = transport.receive(name, kReplyTimeoutMs);
    if (!reply) {
      reply_timeouts.inc();
      continue;  // lost frame, timeout, or transport shutdown
    }
    switch (reply->type) {
      case MessageType::kAssignTask: {
        if (options.death_probability > 0.0 &&
            death_rng.uniform() < options.death_probability) {
          // The worker dies holding this assignment; the lease expires
          // server-side. A replacement joins under a fresh name (frames
          // still in flight to the dead name are orphaned on purpose).
          ++outcome.deaths;
          deaths.inc();
          ++incarnation;
          name = options.name + "#" + std::to_string(incarnation);
          break;
        }
        Message result;
        result.type = MessageType::kTaskResult;
        result.task_id = reply->task_id;
        result.sender = name;
        {
          obs::ScopedSpan span("task_execute", "dist");
          span.arg("task_id", std::to_string(reply->task_id));
          span.arg("worker", name);
          result.payload = executor(reply->task_id, reply->payload);
        }
        // Counted before the send: once this result completes the run,
        // a sibling slot may snapshot the registry on Shutdown.
        ++outcome.tasks_executed;
        tasks_executed.inc();
        transport.send(kServerEndpoint, result);
        break;
      }
      case MessageType::kNoWork:
        no_work.inc();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kNoWorkBackoffMs));
        break;
      case MessageType::kShutdown:
        outcome.saw_shutdown = true;
        outcome.final_name = name;
        return outcome;
      case MessageType::kRequestWork:
      case MessageType::kTaskResult:
      case MessageType::kMetricsSnapshot:
        break;  // worker->server kinds misrouted to a worker; ignore
    }
  }
  outcome.final_name = name;
  return outcome;
}

std::uint64_t slot_seed(std::uint64_t seed, std::size_t slot,
                        std::size_t slots) {
  return slots == 1 ? seed : util::mix64(seed, slot);
}

WorkerLoopOutcome run_worker_slots(std::size_t slots,
                                   const SlotTransportFactory& make_transport,
                                   const TaskExecutor& executor,
                                   const WorkerLoopOptions& options,
                                   bool send_metrics_snapshot) {
  if (slots == 0) {
    throw std::invalid_argument("run_worker_slots: need >= 1 slot");
  }
  options.validate();
  obs::registry().gauge("dist_worker_slots").set(static_cast<double>(slots));

  std::vector<std::shared_ptr<Transport>> transports;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    transports.push_back(make_transport(slot, slot_name(options.name, slot)));
  }

  std::atomic<bool> finished{false};
  std::vector<WorkerLoopOutcome> outcomes(slots);
  std::vector<std::exception_ptr> errors(slots);
  const auto run_slot = [&](std::size_t slot) {
    WorkerLoopOptions slot_options = options;
    slot_options.name = slot_name(options.name, slot);
    slot_options.death_seed = slot_seed(options.death_seed, slot, slots);
    slot_options.keep_running = [&finished, &options] {
      return !finished.load() &&
             (!options.keep_running || options.keep_running());
    };
    try {
      outcomes[slot] =
          run_worker_loop(*transports[slot], executor, slot_options);
      // Every task is complete once the server says Shutdown, so the
      // first slot to see it reports for the process at once. A slot
      // still finishing a re-leased duplicate must not hold the snapshot
      // past the server's drain window.
      if (outcomes[slot].saw_shutdown && !finished.exchange(true) &&
          send_metrics_snapshot) {
        // The whole process registry; the server folds it into the
        // cluster-wide report.
        const obs::Snapshot snapshot = obs::registry().snapshot();
        Message metrics_msg;
        metrics_msg.type = MessageType::kMetricsSnapshot;
        metrics_msg.sender = outcomes[slot].final_name;
        metrics_msg.payload = snapshot.encode();
        transports[slot]->send(kServerEndpoint, metrics_msg);
      }
    } catch (...) {
      errors[slot] = std::current_exception();
      finished.store(true);
    }
  };
  std::vector<std::thread> threads;
  const auto join_all = [&] {
    for (std::thread& thread : threads) thread.join();
  };
  try {
    for (std::size_t slot = 1; slot < slots; ++slot) {
      threads.emplace_back(run_slot, slot);
    }
  } catch (...) {
    finished.store(true);
    join_all();
    throw;
  }
  run_slot(0);
  join_all();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  WorkerLoopOutcome total;
  total.final_name = outcomes[0].final_name;
  for (const WorkerLoopOutcome& outcome : outcomes) {
    total.tasks_executed += outcome.tasks_executed;
    total.deaths += outcome.deaths;
    total.saw_shutdown = total.saw_shutdown || outcome.saw_shutdown;
  }
  return total;
}

}  // namespace phodis::dist
