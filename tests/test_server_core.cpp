// Tests for dist::ServerCore, the sans-I/O scheduling core: no transport,
// no threads and no sleeps — every step is a call with an explicit time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/datamanager.hpp"
#include "dist/server_core.hpp"

namespace phodis::dist {
namespace {

Message request(const std::string& sender) {
  Message msg;
  msg.type = MessageType::kRequestWork;
  msg.sender = sender;
  return msg;
}

Message result(const std::string& sender, std::uint64_t task_id) {
  Message msg;
  msg.type = MessageType::kTaskResult;
  msg.sender = sender;
  msg.task_id = task_id;
  msg.payload = {static_cast<std::uint8_t>(task_id), 0xAB};
  return msg;
}

/// Tasks 0..count-1, each with the one-byte payload {id}.
void add_tasks(DataManager& manager, std::uint64_t count) {
  for (std::uint64_t id = 0; id < count; ++id) {
    manager.add_task(id, {static_cast<std::uint8_t>(id)});
  }
}

void expect_reply(const ServerStep& step, const std::string& to,
                  MessageType type) {
  ASSERT_TRUE(step.reply);
  EXPECT_EQ(step.reply->to, to);
  EXPECT_EQ(step.reply->message.type, type);
  EXPECT_EQ(step.reply->message.sender, kServerEndpoint);
}

TEST(ServerCore, RequestWorkIsAssignedAPendingTask) {
  DataManager manager(10.0);
  add_tasks(manager, 2);
  ServerCore core(manager);

  const ServerStep first = core.on_message(request("w0"), 0.0);
  expect_reply(first, "w0", MessageType::kAssignTask);
  EXPECT_EQ(first.reply->message.task_id, 0u);
  EXPECT_EQ(first.reply->message.payload, std::vector<std::uint8_t>{0});
  EXPECT_FALSE(first.accepted_task);
  EXPECT_FALSE(first.checkpoint_due);
  EXPECT_FALSE(first.metrics_snapshot);

  const ServerStep second = core.on_message(request("w1"), 0.0);
  expect_reply(second, "w1", MessageType::kAssignTask);
  EXPECT_EQ(second.reply->message.task_id, 1u);
  EXPECT_EQ(manager.in_flight_count(), 2u);
}

TEST(ServerCore, RequestWorkGetsNoWorkWhileOnlyLeasedTasksRemain) {
  DataManager manager(10.0);
  add_tasks(manager, 1);
  ServerCore core(manager);
  core.on_message(request("w0"), 0.0);

  const ServerStep step = core.on_message(request("w1"), 1.0);
  expect_reply(step, "w1", MessageType::kNoWork);
  EXPECT_FALSE(core.done());
}

TEST(ServerCore, RequestWorkGetsShutdownOnceAllTasksAreDone) {
  DataManager manager(10.0);
  add_tasks(manager, 1);
  ServerCore core(manager);
  core.on_message(request("w0"), 0.0);
  const ServerStep accepted = core.on_message(result("w0", 0), 1.0);
  ASSERT_TRUE(accepted.accepted_task);
  EXPECT_EQ(*accepted.accepted_task, 0u);
  EXPECT_FALSE(accepted.reply);
  EXPECT_TRUE(core.done());

  expect_reply(core.on_message(request("w1"), 2.0), "w1",
               MessageType::kShutdown);
  // Late requests after the run keep getting Shutdown.
  expect_reply(core.on_message(request("w0"), 3.0), "w0",
               MessageType::kShutdown);
}

TEST(ServerCore, DuplicateResultIsNotAcceptedAndDueNoCheckpoint) {
  DataManager manager(10.0);
  add_tasks(manager, 2);
  ServerCore core(manager, /*checkpoint_every=*/1);
  core.on_message(request("w0"), 0.0);

  const ServerStep first = core.on_message(result("w0", 0), 1.0);
  EXPECT_TRUE(first.accepted_task);
  EXPECT_TRUE(first.checkpoint_due);

  const ServerStep duplicate = core.on_message(result("w9", 0), 2.0);
  EXPECT_FALSE(duplicate.accepted_task);
  EXPECT_FALSE(duplicate.checkpoint_due);
  EXPECT_FALSE(duplicate.reply);
  EXPECT_EQ(manager.stats().duplicate_results, 1u);
  EXPECT_EQ(manager.completed_count(), 1u);
}

TEST(ServerCore, ResultAfterDoneDoesNotReachTheManager) {
  DataManager manager(10.0);
  add_tasks(manager, 1);
  ServerCore core(manager, 1);
  core.on_message(request("w0"), 0.0);
  core.on_message(result("w0", 0), 1.0);
  const DataManagerStats before = manager.stats();

  const ServerStep late = core.on_message(result("w1", 0), 2.0);
  EXPECT_FALSE(late.accepted_task);
  EXPECT_FALSE(late.checkpoint_due);
  EXPECT_EQ(manager.stats().duplicate_results, before.duplicate_results);
}

TEST(ServerCore, CheckpointDueOnExactlyEveryNthAcceptedResult) {
  constexpr std::uint64_t kTasks = 10;
  DataManager manager(10.0);
  add_tasks(manager, kTasks);
  ServerCore core(manager, /*checkpoint_every=*/3);
  for (std::uint64_t id = 0; id < kTasks; ++id) {
    core.on_message(request("w"), 0.0);
  }
  std::vector<std::uint64_t> due_after;
  std::uint64_t accepted = 0;
  for (std::uint64_t id = 0; id < kTasks; ++id) {
    const ServerStep step = core.on_message(result("w", id), 1.0);
    ASSERT_TRUE(step.accepted_task);
    ++accepted;
    if (step.checkpoint_due) due_after.push_back(accepted);
    // A duplicate in between never counts toward the next checkpoint.
    EXPECT_FALSE(core.on_message(result("w", id), 1.0).checkpoint_due);
  }
  EXPECT_EQ(due_after, (std::vector<std::uint64_t>{3, 6, 9}));
}

TEST(ServerCore, CheckpointNeverDueWhenEveryIsZero) {
  DataManager manager(10.0);
  add_tasks(manager, 3);
  ServerCore core(manager);
  for (std::uint64_t id = 0; id < 3; ++id) {
    core.on_message(request("w"), 0.0);
    EXPECT_FALSE(core.on_message(result("w", id), 1.0).checkpoint_due);
  }
}

TEST(ServerCore, TickPastLeaseDeadlineRequeuesTheTask) {
  DataManager manager(/*lease_duration_s=*/1.0);
  add_tasks(manager, 1);
  ServerCore core(manager);
  core.on_message(request("slow"), 0.0);

  EXPECT_EQ(core.on_tick(0.5), 0u);
  expect_reply(core.on_message(request("fast"), 0.5), "fast",
               MessageType::kNoWork);

  EXPECT_EQ(core.on_tick(1.0), 1u);
  const ServerStep released = core.on_message(request("fast"), 1.0);
  expect_reply(released, "fast", MessageType::kAssignTask);
  EXPECT_EQ(released.reply->message.task_id, 0u);
  EXPECT_EQ(manager.stats().lease_expirations, 1u);
}

TEST(ServerCore, ShutdownBroadcastNamesEveryWorkerThatAskedForWork) {
  DataManager manager(10.0);
  add_tasks(manager, 1);
  ServerCore core(manager);
  core.on_message(request("w"), 0.0);
  core.on_message(request("w.1"), 0.0);
  core.on_message(request("w#1"), 0.5);  // "w" died and rejoined renamed
  core.on_message(request("w"), 0.6);
  core.on_message(result("w#1", 0), 1.0);

  const std::vector<Outgoing> broadcast = core.shutdown_broadcast();
  std::vector<std::string> names;
  for (const Outgoing& out : broadcast) {
    EXPECT_EQ(out.message.type, MessageType::kShutdown);
    EXPECT_EQ(out.message.sender, kServerEndpoint);
    names.push_back(out.to);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"w", "w#1", "w.1"}));
}

TEST(ServerCore, MetricsSnapshotIsHandedToTheDriver) {
  DataManager manager(10.0);
  add_tasks(manager, 1);
  ServerCore core(manager);
  Message snapshot;
  snapshot.type = MessageType::kMetricsSnapshot;
  snapshot.sender = "w";
  snapshot.payload = {1, 2, 3};

  const ServerStep step = core.on_message(snapshot, 0.0);
  ASSERT_TRUE(step.metrics_snapshot);
  EXPECT_EQ(*step.metrics_snapshot, snapshot);
  EXPECT_FALSE(step.reply);
  // A snapshot sender is not a requester.
  EXPECT_TRUE(core.shutdown_broadcast().empty());
}

TEST(ServerCore, EchoedServerKindsAreIgnored) {
  DataManager manager(10.0);
  add_tasks(manager, 1);
  ServerCore core(manager);
  for (const MessageType type :
       {MessageType::kAssignTask, MessageType::kNoWork,
        MessageType::kShutdown}) {
    Message echo;
    echo.type = type;
    echo.sender = "w";
    const ServerStep step = core.on_message(echo, 0.0);
    EXPECT_FALSE(step.reply);
    EXPECT_FALSE(step.accepted_task);
    EXPECT_FALSE(step.metrics_snapshot);
  }
  EXPECT_EQ(manager.stats().assignments, 0u);
}

/// Every output of a scripted run — reply frames, effects, tick counts
/// and the shutdown broadcast — flattened to bytes.
std::vector<std::vector<std::uint8_t>> scripted_run() {
  DataManager manager(/*lease_duration_s=*/2.0);
  add_tasks(manager, 5);
  ServerCore core(manager, /*checkpoint_every=*/2);
  std::vector<std::vector<std::uint8_t>> outputs;
  const auto record_step = [&](const ServerStep& step) {
    outputs.push_back(step.reply ? step.reply->message.encode()
                                 : std::vector<std::uint8_t>{});
    outputs.push_back({static_cast<std::uint8_t>(step.reply.has_value()),
                       static_cast<std::uint8_t>(step.checkpoint_due),
                       static_cast<std::uint8_t>(
                           step.accepted_task.value_or(255))});
  };
  const auto tick = [&](double now) {
    outputs.push_back({static_cast<std::uint8_t>(core.on_tick(now))});
  };

  record_step(core.on_message(request("a"), 0.0));
  record_step(core.on_message(request("b"), 0.1));
  record_step(core.on_message(request("c"), 0.2));
  record_step(core.on_message(result("a", 0), 1.0));
  tick(1.5);
  record_step(core.on_message(result("a", 0), 1.6));  // duplicate
  record_step(core.on_message(request("a"), 1.7));
  tick(2.2);  // b's and c's leases expire
  record_step(core.on_message(request("d#1"), 2.3));
  record_step(core.on_message(result("b", 1), 2.4));  // late but first
  record_step(core.on_message(result("x", 99), 2.5));  // unknown id
  for (int i = 0; i < 4; ++i) {
    const ServerStep lease = core.on_message(request("d#1"), 3.0 + i);
    record_step(lease);
    if (lease.reply->message.type == MessageType::kAssignTask) {
      record_step(core.on_message(
          result("d#1", lease.reply->message.task_id), 3.5 + i));
    }
  }
  record_step(core.on_message(result("d#1", 4), 7.0));
  record_step(core.on_message(result("a", 3), 8.0));
  record_step(core.on_message(request("e"), 9.0));
  for (const Outgoing& out : core.shutdown_broadcast()) {
    outputs.push_back(out.message.encode());
    outputs.push_back(std::vector<std::uint8_t>(out.to.begin(), out.to.end()));
  }
  outputs.push_back({static_cast<std::uint8_t>(core.done())});
  return outputs;
}

TEST(ServerCore, SameMessageSequenceGivesIdenticalOutputs) {
  const auto first = scripted_run();
  const auto second = scripted_run();
  EXPECT_EQ(first, second);
  // The script drives the run to completion.
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.back(), std::vector<std::uint8_t>{1});
}

}  // namespace
}  // namespace phodis::dist
