#include "net/server.hpp"

#include <exception>
#include <iterator>
#include <utility>

#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace phodis::net {

namespace {
/// Server-side wire counters, resolved once (function-local statics are
/// thread-safe); labels keep server and client totals apart in a merged
/// cluster report.
struct WireCounters {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& frames_dropped;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Counter& torn_frames;
  obs::Counter& malformed_messages;
  obs::Counter& connections;
};

WireCounters& wire_counters() {
  static WireCounters counters{
      obs::registry().counter("net_frames_sent_total", {{"side", "server"}}),
      obs::registry().counter("net_frames_received_total",
                              {{"side", "server"}}),
      obs::registry().counter("net_frames_dropped_total",
                              {{"side", "server"}}),
      obs::registry().counter("net_bytes_sent_total", {{"side", "server"}}),
      obs::registry().counter("net_bytes_received_total",
                              {{"side", "server"}}),
      obs::registry().counter("net_torn_frames_total", {{"side", "server"}}),
      obs::registry().counter("net_malformed_messages_total",
                              {{"side", "server"}}),
      obs::registry().counter("net_connections_total", {{"side", "server"}}),
  };
  return counters;
}

/// How long shutdown() takes to stop the accept and reader threads: the
/// tail every server exit pays after its last result.
obs::Histogram& shutdown_seconds() {
  static obs::Histogram& histogram = obs::registry().histogram(
      "net_server_shutdown_seconds", obs::Histogram::latency_bounds_s());
  return histogram;
}
}  // namespace

Server::Server(const Address& address, const dist::FaultSpec& faults)
    : drops_(faults) {
  listener_ = Listener::listen(address);
  address_ = listener_.local_address();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { shutdown(); }

void Server::accept_loop() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
    }
    // No period: shutdown() wakes this wait through listener_.wake().
    auto socket = listener_.accept(-1);
    if (!socket) continue;
    wire_counters().connections.inc();
    auto connection = std::make_shared<Connection>();
    connection->socket = std::move(*socket);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;  // raced with shutdown; drop the connection
    connections_.push_back(connection);
    connection->reader =
        std::thread([this, connection] { reader_loop(connection); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& connection) {
  while (true) {
    std::optional<std::vector<std::uint8_t>> frame;
    try {
      frame = read_frame(connection->socket);
    } catch (const FramingError& error) {
      // shutdown() wakes every reader with shutdown_both(), so a frame
      // still arriving then ends mid-frame: that is this server closing
      // the connection, not the peer tearing a frame.
      if (closed()) {
        util::log_debug() << "net::Server: connection closed by shutdown: "
                          << error.what();
      } else {
        util::log_warn() << "net::Server: dropping connection: "
                         << error.what();
        wire_counters().torn_frames.inc();
      }
      frame.reset();
    }
    if (!frame) break;  // EOF or torn frame: connection is done
    wire_counters().frames_received.inc();
    wire_counters().bytes_received.inc(frame->size());
    dist::Message msg;
    try {
      msg = dist::Message::decode(*frame);
    } catch (const std::exception& error) {
      // A worker that frames garbage must never take down the server.
      util::log_warn() << "net::Server: dropping connection on malformed "
                          "message: "
                       << error.what();
      wire_counters().malformed_messages.inc();
      break;
    }
    {
      // Route replies for this sender to the connection it last used.
      std::lock_guard<std::mutex> lock(mutex_);
      routes_[msg.sender] = connection;
    }
    inbox_.deliver(dist::kServerEndpoint, std::move(msg));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  connection->dead = true;
  for (auto it = routes_.begin(); it != routes_.end();) {
    it = (it->second == connection) ? routes_.erase(it) : std::next(it);
  }
}

void Server::send(const std::string& endpoint, const dist::Message& msg) {
  const std::vector<std::uint8_t> frame = msg.encode();
  std::shared_ptr<Connection> connection;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    ++frames_sent_;
    bytes_sent_ += frame.size();
    wire_counters().frames_sent.inc();
    wire_counters().bytes_sent.inc(frame.size());
    if (drops_.should_drop()) {
      ++frames_dropped_;
      wire_counters().frames_dropped.inc();
      return;
    }
    const auto it = routes_.find(endpoint);
    if (it == routes_.end() || it->second->dead) {
      // No live connection for that name (worker died or never spoke):
      // the frame is lost, the protocol's retries handle it.
      return;
    }
    connection = it->second;
  }
  std::lock_guard<std::mutex> write_lock(connection->write_mutex);
  // phodis-lint: allow(D5) per-connection write mutex serialising frames to one peer; never held with server mutex_
  if (!write_frame(connection->socket, frame)) {
    util::log_debug() << "net::Server: send to \"" << endpoint
                      << "\" failed (peer gone)";
  }
}

std::optional<dist::Message> Server::try_receive(const std::string& endpoint) {
  return inbox_.try_pop(endpoint);
}

std::optional<dist::Message> Server::receive(const std::string& endpoint,
                                             std::int64_t timeout_ms) {
  return inbox_.pop(endpoint, timeout_ms);
}

void Server::shutdown() {
  const util::Stopwatch clock;
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
    connections = connections_;
  }
  inbox_.close();
  for (const auto& connection : connections) {
    connection->socket.shutdown_both();  // wakes its reader with EOF
  }
  listener_.wake();  // wakes the accept thread; it then sees stop_
  if (accept_thread_.joinable()) accept_thread_.join();
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  listener_.close();  // only now: accept_loop no longer reads the fd
  shutdown_seconds().observe(clock.seconds());
}

bool Server::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stop_;
}

std::vector<std::string> Server::connected_endpoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(routes_.size());
  for (const auto& [name, connection] : routes_) {
    if (!connection->dead) names.push_back(name);
  }
  return names;
}

std::uint64_t Server::frames_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_sent_;
}

std::uint64_t Server::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_dropped_;
}

std::uint64_t Server::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_sent_;
}

}  // namespace phodis::net
