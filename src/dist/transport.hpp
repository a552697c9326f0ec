// Transport — how protocol messages move between endpoints.
//
// Endpoints are named mailboxes: send(endpoint, msg) delivers an encoded
// frame to whoever receives on that name. The server receives on its own
// well-known endpoint and replies to the sender names it sees; workers
// receive on their own names. net::Server and net::Client realise that
// namespace over TCP or Unix-domain sockets, for separate processes and
// for the in-process platform alike (net::run_in_process); the protocol
// loops in runtime.cpp see only this interface.
//
// Sends may be dropped with a configured, seeded probability (FaultSpec);
// drop decisions are taken before the frame leaves the sender, so fault
// tests behave the same on every transport. All operations are
// thread-safe.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dist/message.hpp"
#include "util/rng.hpp"

namespace phodis::dist {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Encode and deliver `msg` to `endpoint` (or drop it, per the fault
  /// spec). After shutdown() this is a silent no-op; a frame lost on the
  /// way (no route to the peer, broken socket) is equally silent — the
  /// protocol retries, it never relies on delivery.
  virtual void send(const std::string& endpoint, const Message& msg) = 0;

  /// Pop the next frame for `endpoint` without blocking.
  virtual std::optional<Message> try_receive(const std::string& endpoint) = 0;

  /// Pop the next frame for `endpoint`, waiting up to `timeout_ms`.
  /// Returns nullopt on timeout or transport shutdown.
  virtual std::optional<Message> receive(const std::string& endpoint,
                                         std::int64_t timeout_ms) = 0;

  /// Stop all traffic and wake every blocked receiver.
  virtual void shutdown() = 0;

  /// True once the transport can no longer deliver traffic — after
  /// shutdown(), or when a connection-oriented implementation has
  /// exhausted its reconnect budget. Protocol loops use this to stop
  /// retrying instead of spinning forever.
  virtual bool closed() const = 0;

  virtual std::uint64_t frames_sent() const = 0;
  virtual std::uint64_t frames_dropped() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;
};

/// Seeded Bernoulli drop decisions shared by every transport's fault
/// injection. Not thread-safe on its own: callers draw under their lock.
class DropInjector {
 public:
  explicit DropInjector(const FaultSpec& faults)
      : rng_(faults.seed), probability_(faults.drop_probability) {
    faults.validate();
  }

  /// Decide the fate of one send. Draws from the stream only when drops
  /// are enabled, so a zero-probability spec never perturbs anything.
  bool should_drop() {
    return probability_ > 0.0 && rng_.uniform() < probability_;
  }

 private:
  util::Xoshiro256pp rng_;
  double probability_;
};

}  // namespace phodis::dist
