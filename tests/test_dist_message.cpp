// Tests for message framing, the socket transports' mailbox queues and
// the seeded drop injector.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "dist/message.hpp"
#include "dist/transport.hpp"
#include "net/mailbox.hpp"

namespace phodis::dist {
namespace {

// ---------- Message ----------------------------------------------------------

TEST(Message, EncodeDecodeRoundTrip) {
  Message msg;
  msg.type = MessageType::kAssignTask;
  msg.task_id = 123456789;
  msg.sender = "worker-7";
  msg.payload = {0x00, 0xFF, 0x42, 0x10};
  const Message back = Message::decode(msg.encode());
  EXPECT_EQ(back, msg);
}

TEST(Message, EmptyPayloadRoundTrip) {
  Message msg;
  msg.type = MessageType::kRequestWork;
  msg.sender = "worker-0";
  const Message back = Message::decode(msg.encode());
  EXPECT_EQ(back, msg);
  EXPECT_TRUE(back.payload.empty());
}

TEST(Message, AllTypesRoundTrip) {
  for (MessageType type :
       {MessageType::kRequestWork, MessageType::kAssignTask,
        MessageType::kTaskResult, MessageType::kNoWork,
        MessageType::kShutdown}) {
    Message msg;
    msg.type = type;
    EXPECT_EQ(Message::decode(msg.encode()).type, type);
  }
}

TEST(Message, ToStringNamesAllTypes) {
  EXPECT_EQ(to_string(MessageType::kRequestWork), "RequestWork");
  EXPECT_EQ(to_string(MessageType::kShutdown), "Shutdown");
}

TEST(Message, DecodeRejectsUnknownType) {
  Message msg;
  std::vector<std::uint8_t> frame = msg.encode();
  frame[0] = 99;
  EXPECT_THROW(Message::decode(frame), std::invalid_argument);
}

TEST(Message, DecodeRejectsLengthMismatch) {
  Message msg;
  msg.payload = {1, 2, 3};
  std::vector<std::uint8_t> frame = msg.encode();
  frame.pop_back();
  EXPECT_THROW(Message::decode(frame), std::exception);
}

TEST(Message, DecodeRejectsTruncatedHeader) {
  const std::vector<std::uint8_t> frame = {1, 2, 3};
  EXPECT_THROW(Message::decode(frame), std::out_of_range);
}

// ---------- FaultSpec --------------------------------------------------------

TEST(FaultSpec, Validation) {
  FaultSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.drop_probability = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.drop_probability = 1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.drop_probability = 0.5;
  EXPECT_NO_THROW(spec.validate());
}

// ---------- net::Mailbox ----------------------------------------------------
// The queues behind net::Server's and net::Client's receive().

using net::Mailbox;

Message with_task_id(std::uint64_t task_id) {
  Message msg;
  msg.task_id = task_id;
  return msg;
}

TEST(Mailbox, DeliversInFifoOrder) {
  Mailbox mailbox;
  for (std::uint64_t i = 0; i < 5; ++i) {
    mailbox.deliver("dest", with_task_id(i));
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto msg = mailbox.try_pop("dest");
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->task_id, i);
  }
  EXPECT_FALSE(mailbox.try_pop("dest").has_value());
}

TEST(Mailbox, EndpointsAreIsolated) {
  Mailbox mailbox;
  mailbox.deliver("alice", with_task_id(1));
  EXPECT_FALSE(mailbox.try_pop("bob").has_value());
  EXPECT_TRUE(mailbox.try_pop("alice").has_value());
}

TEST(Mailbox, PopTimesOutWhenEmpty) {
  Mailbox mailbox;
  EXPECT_FALSE(mailbox.pop("nobody", 10).has_value());
}

TEST(Mailbox, BlockingPopWakesOnDeliver) {
  Mailbox mailbox;
  std::thread deliverer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mailbox.deliver("w", with_task_id(7));
  });
  const auto msg = mailbox.pop("w", 2000);
  deliverer.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->task_id, 7u);
}

TEST(Mailbox, CloseWakesBlockedPoppers) {
  Mailbox mailbox;
  std::thread waiter(
      [&] { EXPECT_FALSE(mailbox.pop("w", 60000).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mailbox.close();
  waiter.join();
  EXPECT_TRUE(mailbox.closed());
}

TEST(Mailbox, RefusesTrafficAfterClose) {
  Mailbox mailbox;
  mailbox.deliver("x", with_task_id(1));
  mailbox.close();
  mailbox.deliver("x", with_task_id(2));
  EXPECT_FALSE(mailbox.try_pop("x").has_value());
  EXPECT_FALSE(mailbox.pop("x", 10).has_value());
}

TEST(Mailbox, ConcurrentDeliverersDontLoseMessages) {
  Mailbox mailbox;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> deliverers;
  for (int t = 0; t < kThreads; ++t) {
    deliverers.emplace_back([&mailbox] {
      for (int i = 0; i < kPerThread; ++i) mailbox.deliver("sink", Message{});
    });
  }
  for (auto& t : deliverers) t.join();
  int received = 0;
  while (mailbox.try_pop("sink")) ++received;
  EXPECT_EQ(received, kThreads * kPerThread);
}

// ---------- DropInjector -----------------------------------------------------

TEST(DropInjector, DropsRoughlyTheConfiguredFraction) {
  DropInjector drops(FaultSpec{.drop_probability = 0.3, .seed = 5});
  const int n = 10000;
  int dropped = 0;
  for (int i = 0; i < n; ++i) dropped += drops.should_drop() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.3, 0.02);
}

TEST(DropInjector, ZeroProbabilitySpecNeverDrops) {
  for (std::uint64_t seed : {0u, 5u, 2006u}) {
    DropInjector drops(FaultSpec{.drop_probability = 0.0, .seed = seed});
    for (int i = 0; i < 10000; ++i) ASSERT_FALSE(drops.should_drop());
  }
}

}  // namespace
}  // namespace phodis::dist
