// net::run_in_process — the whole platform inside one process, over the
// production socket path.
//
// The server side and a fleet of task slots talk through a net::Server
// on 127.0.0.1 at a port the kernel picks, and one net::Client per slot,
// exactly as phodis_server and a phodis_worker process do. So an
// in-process run pays for, and tests, the framing, the reader threads
// and the connection handling of a real cluster; only the process
// boundary is missing. MonteCarloApp::run_distributed runs on it.
#pragma once

#include <cstdint>
#include <functional>

#include "dist/runtime.hpp"
#include "dist/transport.hpp"

namespace phodis::net {

/// What the fleet of one in-process run did, and what the run sent.
struct InProcessRun {
  /// dist::run_worker_slots' outcome for the whole fleet.
  dist::WorkerLoopOutcome fleet;
  /// Summed over the server and every slot's client.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_sent = 0;
};

/// Run `serve` on the calling thread against `slots` task slots of one
/// dist::run_worker_slots call (with `worker_options`, executing
/// `executor`) on a thread of their own. `serve` is handed the server's
/// transport and drives the server loop over it. The server drops frames
/// per `faults`; the slots' clients per net::slot_clients.
///
/// Once `serve` returns or throws, every slot's client is shut down, so
/// a slot whose Shutdown frame was lost stops at once. A slot's
/// exception shuts the server down, which ends `serve`, and is the one
/// rethrown; otherwise `serve`'s exception is.
InProcessRun run_in_process(
    std::size_t slots, const dist::FaultSpec& faults,
    const dist::TaskExecutor& executor,
    const dist::WorkerLoopOptions& worker_options,
    const std::function<void(dist::Transport& server)>& serve);

}  // namespace phodis::net
