#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace phodis::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Latency beats throughput for the small protocol frames: disable
/// Nagle on every TCP socket.
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_un make_unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("Socket: unix path too long: " + path);
  }
  // phodis-lint: allow(D4) sun_path is the kernel's sockaddr API, not wire bytes
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Resolve an IPv4 sockaddr for host:port (numeric or named host).
sockaddr_in resolve_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    throw std::invalid_argument("Socket: cannot resolve host \"" + host +
                                "\": " + ::gai_strerror(rc));
  }
  sockaddr_in addr{};
  // Copy what getaddrinfo actually produced: ai_addrlen is sizeof(sockaddr_in)
  // for AF_INET hints, but trusting that invariant would read past a shorter
  // record if a resolver ever returned one.
  // phodis-lint: allow(D4) sockaddr from the resolver API, not wire bytes
  std::memcpy(&addr, result->ai_addr,
              std::min(static_cast<std::size_t>(result->ai_addrlen),
                       sizeof addr));
  ::freeaddrinfo(result);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Socket Socket::connect(const Address& address) {
  if (address.kind == Address::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    const sockaddr_un addr = make_unix_sockaddr(address.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("connect(" + address.to_string() + ")");
    }
    return Socket(fd);
  }
  const sockaddr_in addr = resolve_tcp(address.host, address.port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + address.to_string() + ")");
  }
  set_nodelay(fd);
  return Socket(fd);
}

bool Socket::send_all(const void* data, std::size_t len) {
  const auto* cursor = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd_, cursor, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone (EPIPE/ECONNRESET/...) or fd shut down
    }
    cursor += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t Socket::recv_upto(void* data, std::size_t len) {
  auto* cursor = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, cursor + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // hard error: report what arrived, caller treats as torn/EOF
    }
    if (n == 0) break;  // EOF
    got += static_cast<std::size_t>(n);
  }
  return got;
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      address_(std::move(other.address_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    address_ = std::move(other.address_);
  }
  return *this;
}

Listener Listener::listen(const Address& address, int backlog) {
  Listener listener;
  listener.address_ = address;
  if (address.kind == Address::Kind::kUnix) {
    const sockaddr_un addr = make_unix_sockaddr(address.path);
    ::unlink(address.path.c_str());
    listener.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener.fd_ < 0) throw_errno("socket(AF_UNIX)");
    if (::bind(listener.fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw_errno("bind(" + address.to_string() + ")");
    }
  } else {
    sockaddr_in addr = resolve_tcp(address.host, address.port);
    listener.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener.fd_ < 0) throw_errno("socket(AF_INET)");
    int one = 1;
    ::setsockopt(listener.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listener.fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw_errno("bind(" + address.to_string() + ")");
    }
    if (address.port == 0) {
      sockaddr_in bound{};
      socklen_t bound_len = sizeof bound;
      if (::getsockname(listener.fd_, reinterpret_cast<sockaddr*>(&bound),
                        &bound_len) != 0) {
        throw_errno("getsockname");
      }
      listener.address_.port = ntohs(bound.sin_port);
    }
  }
  if (::listen(listener.fd_, backlog) != 0) {
    throw_errno("listen(" + address.to_string() + ")");
  }
  return listener;
}

std::optional<Socket> Listener::accept(std::int64_t timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  pollfd pfd{fd_, POLLIN, 0};
  const int rc =
      ::poll(&pfd, 1, timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
  if (rc <= 0) return std::nullopt;  // timeout or poll interrupted
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) return std::nullopt;  // racer took it, or woken/closed
  if (address_.kind == Address::Kind::kTcp) set_nodelay(conn);
  return Socket(conn);
}

void Listener::wake() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (address_.kind == Address::Kind::kUnix) {
      ::unlink(address_.path.c_str());
    }
  }
}

}  // namespace phodis::net
