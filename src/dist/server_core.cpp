#include "dist/server_core.hpp"

#include <utility>

namespace phodis::dist {

namespace {

Outgoing to_worker(const std::string& worker, MessageType type) {
  Outgoing out{worker, {}};
  out.message.type = type;
  out.message.sender = kServerEndpoint;
  return out;
}

}  // namespace

ServerCore::ServerCore(DataManager& manager, std::uint64_t checkpoint_every)
    : manager_(manager), checkpoint_every_(checkpoint_every) {}

ServerStep ServerCore::on_message(Message msg, double now) {
  ServerStep step;
  switch (msg.type) {
    case MessageType::kRequestWork: {
      requesters_.insert(msg.sender);
      if (auto task = manager_.lease_next(msg.sender, now)) {
        step.reply = to_worker(msg.sender, MessageType::kAssignTask);
        step.reply->message.task_id = task->task_id;
        step.reply->message.payload = std::move(task->payload);
      } else {
        step.reply = to_worker(msg.sender, manager_.all_done()
                                               ? MessageType::kShutdown
                                               : MessageType::kNoWork);
      }
      break;
    }
    case MessageType::kTaskResult:
      if (manager_.all_done()) break;
      if (manager_.complete(msg.task_id, msg.sender, now,
                            std::move(msg.payload))) {
        step.accepted_task = msg.task_id;
        if (checkpoint_every_ > 0 &&
            ++accepted_since_checkpoint_ >= checkpoint_every_) {
          step.checkpoint_due = true;
          accepted_since_checkpoint_ = 0;
        }
      }
      break;
    case MessageType::kMetricsSnapshot:
      step.metrics_snapshot = std::move(msg);
      break;
    case MessageType::kAssignTask:
    case MessageType::kNoWork:
    case MessageType::kShutdown:
      break;  // server->worker kinds echoed back to us; ignore
  }
  return step;
}

std::size_t ServerCore::on_tick(double now) {
  return manager_.expire_leases(now);
}

bool ServerCore::done() const { return manager_.all_done(); }

std::vector<Outgoing> ServerCore::shutdown_broadcast() const {
  std::vector<Outgoing> broadcast;
  broadcast.reserve(requesters_.size());
  for (const std::string& worker : requesters_) {
    broadcast.push_back(to_worker(worker, MessageType::kShutdown));
  }
  return broadcast;
}

}  // namespace phodis::dist
