// ServerCore — the scheduling of the paper's DataManager as a sans-I/O
// step machine.
//
// The core owns the server's half of the RequestWork / AssignTask /
// TaskResult protocol: who is leased what, which result is accepted,
// when a checkpoint is due and whom the final Shutdown goes to. Each
// step takes one message (or a clock tick) plus the current time and
// returns the reply to send and the effects to carry out. It does no
// I/O, reads no clock and touches no metrics registry, so one
// implementation serves two drivers:
//
//   * dist::run_server_loop (runtime.cpp) — the real server. It receives
//     frames from a Transport, ticks on the wall clock, sends the
//     replies, writes the checkpoints and keeps the dist_server_*
//     counters and trace spans.
//   * cluster::ClusterSimulator — the discrete-event model of Fig. 2,
//     Table 2 and the scheduler ablation. It steps the core on virtual
//     time with leases that never expire.
//
// Not thread-safe: one driver thread steps a core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dist/datamanager.hpp"
#include "dist/message.hpp"

namespace phodis::dist {

/// One frame the driver must send: `message` to endpoint `to`.
struct Outgoing {
  std::string to;
  Message message;
};

/// What one ServerCore::on_message step asks of its driver.
struct ServerStep {
  /// The reply to a RequestWork (AssignTask, NoWork or Shutdown).
  std::optional<Outgoing> reply;
  /// Id of the task whose first result this step accepted.
  std::optional<std::uint64_t> accepted_task;
  /// The accepted result was the checkpoint_every-th since the last
  /// checkpoint: persist the manager now.
  bool checkpoint_due = false;
  /// A MetricsSnapshot frame, handed over whole for the driver's sink.
  std::optional<Message> metrics_snapshot;
};

class ServerCore {
 public:
  /// Steps `manager`, which must outlive the core. `checkpoint_every` > 0
  /// marks every checkpoint_every-th accepted result checkpoint_due; 0
  /// never does.
  explicit ServerCore(DataManager& manager, std::uint64_t checkpoint_every = 0);

  /// Handle one received message at time `now` (seconds, the manager's
  /// clock):
  ///  * RequestWork: record the sender for the shutdown broadcast and
  ///    reply AssignTask with the oldest pending task, NoWork while only
  ///    leased tasks remain, or Shutdown once every task is done;
  ///  * TaskResult: hand the result to the manager, which accepts the
  ///    first one per task. Once the run is done a result is too late to
  ///    matter and is dropped without reaching the manager;
  ///  * MetricsSnapshot: return it as metrics_snapshot;
  ///  * the server-to-worker kinds, echoed back: ignored.
  ServerStep on_message(Message msg, double now);

  /// Requeue every lease whose deadline has passed at `now`; returns how
  /// many were requeued.
  std::size_t on_tick(double now);

  /// True once every task has completed.
  bool done() const;

  /// One Shutdown per endpoint that ever asked for work, renamed
  /// incarnations (`name#N`) included, in name order.
  std::vector<Outgoing> shutdown_broadcast() const;

 private:
  DataManager& manager_;
  std::uint64_t checkpoint_every_;
  std::uint64_t accepted_since_checkpoint_ = 0;
  std::set<std::string> requesters_;
};

}  // namespace phodis::dist
