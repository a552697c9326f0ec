// Thin RAII layer over POSIX stream sockets (TCP and Unix-domain).
//
// Everything here is blocking I/O with the two realities of stream
// sockets handled once, centrally: partial reads/writes (send/recv may
// move fewer bytes than asked) and EINTR. Peer loss is reported, never
// thrown — a worker vanishing is normal cluster weather; the framing
// layer decides whether an EOF is clean (frame boundary) or torn.
// SIGPIPE is avoided via MSG_NOSIGNAL, not a global handler.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/address.hpp"

namespace phodis::net {

/// A connected stream socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connect to `address`. Throws std::system_error when the kernel says
  /// no (refused, unreachable, bad path) — callers with a reconnect
  /// policy catch and retry.
  static Socket connect(const Address& address);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Write exactly `len` bytes, looping over partial writes. Returns
  /// false once the peer is gone (reset, closed, or shut down).
  bool send_all(const void* data, std::size_t len);

  /// Read until `len` bytes or EOF/error; returns how many bytes
  /// actually arrived (so the caller can tell a clean EOF, 0, from a
  /// torn transfer, 0 < n < len).
  std::size_t recv_upto(void* data, std::size_t len);

  /// Half-close both directions, waking any thread blocked in
  /// recv_upto() on this socket (it sees EOF). Safe to call from another
  /// thread; close() is not.
  void shutdown_both() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// A bound, listening socket.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind and listen on `address`. TCP port 0 picks an ephemeral port
  /// (see local_address()); an existing Unix socket path is unlinked
  /// first (stale leftovers from a killed server). Throws
  /// std::system_error on failure.
  static Listener listen(const Address& address, int backlog = 16);

  /// The bound address, with the ephemeral TCP port resolved.
  const Address& local_address() const noexcept { return address_; }

  /// Wait up to `timeout_ms` for a connection; a negative timeout waits
  /// with no period, until a connection arrives or wake() is called.
  /// nullopt on timeout, once wake() has been called, or once the
  /// listener is closed.
  std::optional<Socket> accept(std::int64_t timeout_ms);

  /// Wake a thread blocked in accept() and make every later accept()
  /// return nullopt at once: shuts the listening socket down (poll sees
  /// POLLHUP for TCP and Unix-domain sockets alike, accept fails with
  /// EINVAL). The state stays on the socket, so a wake that lands before
  /// the acceptor reaches poll is not lost. Safe to call from another
  /// thread; close() is not, so close only after the acceptor has
  /// stopped.
  void wake() noexcept;

  bool valid() const noexcept { return fd_ >= 0; }

  /// Close the listening socket; a bound Unix path is unlinked.
  void close() noexcept;

 private:
  int fd_ = -1;
  Address address_;
};

}  // namespace phodis::net
