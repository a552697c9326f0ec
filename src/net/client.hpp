// net::Client — the worker-side socket transport.
//
// One connection to the server, lazily (re)established: a failed connect
// or a broken pipe costs the frame in flight, never the worker — the
// protocol's RequestWork retries carry the recovery. Reconnects back off
// exponentially; once `ReconnectPolicy::max_attempts` consecutive
// attempts fail the client closes itself (closed() goes true) so a
// worker whose server is truly gone exits instead of spinning — the
// paper's non-dedicated clients behave the same way when the DataManager
// host disappears.
//
// Implements dist::Transport: the link is point-to-point, so send()
// targets the server and receive() pops the link's single inbox
// regardless of the endpoint names passed — which also keeps a worker
// receiving after it renames itself (death injection rebirths as
// "name#N"; the server routes replies by sender name, the frames still
// arrive on this one connection).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "dist/runtime.hpp"
#include "dist/transport.hpp"
#include "net/mailbox.hpp"
#include "net/socket.hpp"

namespace phodis::net {

struct ReconnectPolicy {
  /// Consecutive failed connection attempts before the client gives up
  /// and closes itself.
  std::size_t max_attempts = 20;
  std::int64_t initial_backoff_ms = 50;
  std::int64_t max_backoff_ms = 2000;

  void validate() const;
};

class Client final : public dist::Transport {
 public:
  /// `name` is this worker's endpoint (the sender field of its frames).
  /// The connection is established on first use.
  Client(Address server, std::string name,
         const dist::FaultSpec& faults = {}, ReconnectPolicy reconnect = {});
  ~Client() override;

  const std::string& name() const noexcept { return name_; }
  bool connected() const;

  // dist::Transport
  void send(const std::string& endpoint, const dist::Message& msg) override;
  std::optional<dist::Message> try_receive(
      const std::string& endpoint) override;
  std::optional<dist::Message> receive(const std::string& endpoint,
                                       std::int64_t timeout_ms) override;
  void shutdown() override;
  bool closed() const override;
  std::uint64_t frames_sent() const override;
  std::uint64_t frames_dropped() const override;
  std::uint64_t bytes_sent() const override;

 private:
  void reader_loop();
  /// Connect if disconnected, sleeping one backoff step on failure.
  /// Returns the live socket, or nullptr when disconnected (and marks
  /// the client closed once the attempt budget is spent).
  std::shared_ptr<Socket> ensure_connected();

  Address server_;
  std::string name_;
  ReconnectPolicy reconnect_;
  Mailbox inbox_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // reader waits for a socket or stop
  std::shared_ptr<Socket> socket_;
  dist::DropInjector drops_;
  std::size_t failed_attempts_ = 0;
  bool stop_ = false;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;

  std::thread reader_thread_;
};

/// The transports of one worker's `slots` task slots
/// (dist::run_worker_slots): slot k is a Client to `server` named after
/// its endpoint, dropping frames with faults.drop_probability on the
/// stream dist::slot_seed(faults.seed, k, slots), so slots never drop in
/// lockstep.
dist::SlotTransportFactory slot_clients(Address server,
                                        dist::FaultSpec faults,
                                        std::size_t slots,
                                        ReconnectPolicy reconnect = {});

}  // namespace phodis::net
