// net::Server — the socket-side DataManager transport.
//
// One accept loop plus one reader thread per connection. Every inbound
// frame is decoded at the edge (a malformed frame drops that connection,
// never the server) and delivered to the server's own mailbox endpoint;
// the frame's sender name is mapped to its connection so that
// send("w3", reply) finds the right socket. A name re-appearing on a new
// connection (worker restart, reconnect) simply remaps — last writer
// wins, exactly like the paper's clients re-registering with the
// DataManager after a reboot.
//
// Implements dist::Transport, so dist::run_server_loop() drives a real
// cluster with the same code that drives the in-process loopback.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/transport.hpp"
#include "net/mailbox.hpp"
#include "net/socket.hpp"

namespace phodis::net {

class Server final : public dist::Transport {
 public:
  /// Bind `address` and start accepting. Every inbound frame is
  /// delivered to the protocol's well-known dist::kServerEndpoint mailbox.
  explicit Server(const Address& address,
                  const dist::FaultSpec& faults = {});
  ~Server() override;

  /// The bound address (ephemeral TCP ports resolved).
  const Address& local_address() const noexcept { return address_; }

  /// Endpoint names currently mapped to a live connection.
  std::vector<std::string> connected_endpoints() const;

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
  struct Connection {
    Socket socket;
    std::mutex write_mutex;
    std::thread reader;
    bool dead = false;  // reader exited (EOF, torn frame, or shutdown)
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& connection);

  Address address_;
  Listener listener_;
  Mailbox inbox_;

  mutable std::mutex mutex_;  // guards connections_, routes_, counters, drops_
  std::vector<std::shared_ptr<Connection>> connections_;
  std::map<std::string, std::shared_ptr<Connection>> routes_;
  dist::DropInjector drops_;
  bool stop_ = false;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;

  std::thread accept_thread_;
};

}  // namespace phodis::net
