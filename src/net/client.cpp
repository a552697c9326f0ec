#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace phodis::net {

namespace {
/// The link is point-to-point: every inbound frame lands in one inbox
/// under this key, whatever endpoint name the receiver asks for.
constexpr const char* kInboxKey = "<link>";

/// Client-side wire counters (see the server-side twin in server.cpp).
struct WireCounters {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& frames_dropped;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Counter& torn_frames;
  obs::Counter& malformed_messages;
  obs::Counter& connects;
  obs::Counter& reconnect_attempts;
};

WireCounters& wire_counters() {
  static WireCounters counters{
      obs::registry().counter("net_frames_sent_total", {{"side", "client"}}),
      obs::registry().counter("net_frames_received_total",
                              {{"side", "client"}}),
      obs::registry().counter("net_frames_dropped_total",
                              {{"side", "client"}}),
      obs::registry().counter("net_bytes_sent_total", {{"side", "client"}}),
      obs::registry().counter("net_bytes_received_total",
                              {{"side", "client"}}),
      obs::registry().counter("net_torn_frames_total", {{"side", "client"}}),
      obs::registry().counter("net_malformed_messages_total",
                              {{"side", "client"}}),
      obs::registry().counter("net_connects_total", {{"side", "client"}}),
      obs::registry().counter("net_reconnect_attempts_total",
                              {{"side", "client"}}),
  };
  return counters;
}
}  // namespace

void ReconnectPolicy::validate() const {
  if (max_attempts == 0) {
    throw std::invalid_argument("ReconnectPolicy: need >= 1 attempt");
  }
  if (initial_backoff_ms < 0 || max_backoff_ms < initial_backoff_ms) {
    throw std::invalid_argument(
        "ReconnectPolicy: need 0 <= initial_backoff_ms <= max_backoff_ms");
  }
}

Client::Client(Address server, std::string name,
               const dist::FaultSpec& faults, ReconnectPolicy reconnect)
    : server_(std::move(server)),
      name_(std::move(name)),
      reconnect_(reconnect),
      drops_(faults) {
  reconnect_.validate();
  reader_thread_ = std::thread([this] { reader_loop(); });
}

Client::~Client() { shutdown(); }

std::shared_ptr<Socket> Client::ensure_connected() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stop_) return nullptr;
  if (socket_) return socket_;
  if (failed_attempts_ >= reconnect_.max_attempts) return nullptr;
  const std::size_t attempts_so_far = failed_attempts_;
  // Connect without the lock: receive() and the reader must stay live
  // while a connect to a dead server waits out its timeout.
  lock.unlock();
  std::shared_ptr<Socket> fresh;
  try {
    fresh = std::make_shared<Socket>(Socket::connect(server_));
  } catch (const std::exception& error) {
    wire_counters().reconnect_attempts.inc();
    const std::int64_t backoff = std::min(
        reconnect_.max_backoff_ms,
        reconnect_.initial_backoff_ms
            << std::min<std::size_t>(attempts_so_far, 12));
    util::log_debug() << "net::Client(" << name_ << "): connect failed ("
                      << error.what() << "), backing off " << backoff
                      << " ms";
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    lock.lock();
    if (++failed_attempts_ >= reconnect_.max_attempts && !stop_) {
      util::log_warn() << "net::Client(" << name_ << "): giving up on "
                       << server_.to_string() << " after "
                       << failed_attempts_ << " attempts";
      stop_ = true;
      lock.unlock();
      inbox_.close();
      cv_.notify_all();
    }
    return nullptr;
  }
  lock.lock();
  if (stop_) return nullptr;
  failed_attempts_ = 0;
  wire_counters().connects.inc();
  socket_ = std::move(fresh);
  cv_.notify_all();  // hand the new socket to the reader
  return socket_;
}

void Client::reader_loop() {
  while (true) {
    std::shared_ptr<Socket> socket;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || socket_ != nullptr; });
      if (stop_) return;
      socket = socket_;
    }
    while (true) {
      std::optional<std::vector<std::uint8_t>> frame;
      try {
        frame = read_frame(*socket);
      } catch (const FramingError& error) {
        util::log_warn() << "net::Client(" << name_
                         << "): torn frame: " << error.what();
        wire_counters().torn_frames.inc();
        frame.reset();
      }
      if (!frame) break;  // EOF/torn: drop this socket, wait for the next
      wire_counters().frames_received.inc();
      wire_counters().bytes_received.inc(frame->size());
      try {
        inbox_.deliver(kInboxKey, dist::Message::decode(*frame));
      } catch (const std::exception& error) {
        util::log_warn() << "net::Client(" << name_
                         << "): malformed message: " << error.what();
        wire_counters().malformed_messages.inc();
        break;
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (socket_ == socket) socket_.reset();  // else send() already replaced it
  }
}

void Client::send(const std::string& /*endpoint*/, const dist::Message& msg) {
  const std::vector<std::uint8_t> frame = msg.encode();
  std::shared_ptr<Socket> socket = ensure_connected();
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
  }
  if (!socket) return;  // disconnected: the frame is lost, retries recover
  if (!write_frame(*socket, frame)) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (socket_ == socket) {
      socket_->shutdown_both();  // unblock the reader promptly
      socket_.reset();
    }
  }
}

std::optional<dist::Message> Client::try_receive(
    const std::string& /*endpoint*/) {
  return inbox_.try_pop(kInboxKey);
}

std::optional<dist::Message> Client::receive(const std::string& /*endpoint*/,
                                             std::int64_t timeout_ms) {
  return inbox_.pop(kInboxKey, timeout_ms);
}

void Client::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ && !reader_thread_.joinable()) return;
    stop_ = true;
    if (socket_) socket_->shutdown_both();  // wake a blocked reader
  }
  inbox_.close();
  cv_.notify_all();
  if (reader_thread_.joinable()) reader_thread_.join();
}

bool Client::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return socket_ != nullptr;
}

bool Client::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stop_;
}

std::uint64_t Client::frames_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_sent_;
}

std::uint64_t Client::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_dropped_;
}

std::uint64_t Client::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_sent_;
}

dist::SlotTransportFactory slot_clients(Address server,
                                        dist::FaultSpec faults,
                                        std::size_t slots,
                                        ReconnectPolicy reconnect) {
  return [server = std::move(server), faults, slots, reconnect](
             std::size_t slot, const std::string& name) {
    dist::FaultSpec slot_faults = faults;
    slot_faults.seed = dist::slot_seed(faults.seed, slot, slots);
    return std::make_shared<Client>(server, name, slot_faults, reconnect);
  };
}

}  // namespace phodis::net
