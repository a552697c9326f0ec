// Named FIFO queues of decoded messages, shared by the socket
// transports: reader threads deliver, protocol loops pop. pop() waits on
// a condition variable until a message arrives, the timeout passes, or
// close() wakes everyone for good.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "dist/message.hpp"

namespace phodis::net {

class Mailbox {
 public:
  /// Append to `endpoint`'s queue and wake blocked receivers. No-op
  /// after close().
  void deliver(const std::string& endpoint, dist::Message msg) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      queues_[endpoint].push_back(std::move(msg));
    }
    cv_.notify_all();
  }

  std::optional<dist::Message> try_pop(const std::string& endpoint) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return std::nullopt;
    auto it = queues_.find(endpoint);
    if (it == queues_.end() || it->second.empty()) return std::nullopt;
    dist::Message msg = std::move(it->second.front());
    it->second.pop_front();
    return msg;
  }

  std::optional<dist::Message> pop(const std::string& endpoint,
                                   std::int64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto& queue = queues_[endpoint];
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [&] { return closed_ || !queue.empty(); });
    if (closed_ || queue.empty()) return std::nullopt;
    dist::Message msg = std::move(queue.front());
    queue.pop_front();
    return msg;
  }

  /// Permanently stop traffic and wake every blocked pop().
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::deque<dist::Message>> queues_;
  bool closed_ = false;
};

}  // namespace phodis::net
