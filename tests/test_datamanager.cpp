// Tests for the DataManager: leasing, exactly-once completion, lease
// expiry, result streaming and checkpoints.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "dist/datamanager.hpp"
#include "util/bytes.hpp"

namespace phodis::dist {
namespace {

std::vector<std::uint8_t> payload_of(std::uint8_t byte) { return {byte}; }

TEST(DataManager, RejectsNonPositiveLease) {
  EXPECT_THROW(DataManager(0.0), std::invalid_argument);
  EXPECT_THROW(DataManager(-1.0), std::invalid_argument);
}

TEST(DataManager, AddAndLeaseInFifoOrder) {
  DataManager dm(10.0);
  dm.add_task(0, payload_of(10));
  dm.add_task(1, payload_of(11));
  auto a = dm.lease_next("w0", 0.0);
  auto b = dm.lease_next("w1", 0.0);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->task_id, 0u);
  EXPECT_EQ(b->task_id, 1u);
  EXPECT_EQ(a->payload, payload_of(10));
  EXPECT_FALSE(dm.lease_next("w2", 0.0).has_value());
}

TEST(DataManager, DuplicateTaskIdThrows) {
  DataManager dm(10.0);
  dm.add_task(5, {});
  EXPECT_THROW(dm.add_task(5, {}), std::invalid_argument);
}

TEST(DataManager, CompleteIsExactlyOnce) {
  DataManager dm(10.0);
  dm.add_task(0, {});
  dm.lease_next("w0", 0.0);
  EXPECT_TRUE(dm.complete(0, "w0", 1.0));
  EXPECT_FALSE(dm.complete(0, "w0", 1.5));  // duplicate
  EXPECT_EQ(dm.stats().duplicate_results, 1u);
  EXPECT_TRUE(dm.all_done());
}

TEST(DataManager, UnknownResultIsCounted) {
  DataManager dm(10.0);
  EXPECT_FALSE(dm.complete(999, "w0", 0.0));
  EXPECT_EQ(dm.stats().unknown_results, 1u);
}

TEST(DataManager, LeaseExpiryRequeues) {
  DataManager dm(5.0);
  dm.add_task(0, {});
  dm.lease_next("w0", 0.0);
  EXPECT_EQ(dm.pending_count(), 0u);
  EXPECT_EQ(dm.in_flight_count(), 1u);
  EXPECT_EQ(dm.expire_leases(4.9), 0u);  // not yet
  EXPECT_EQ(dm.expire_leases(5.0), 1u);  // deadline reached
  EXPECT_EQ(dm.pending_count(), 1u);
  EXPECT_EQ(dm.in_flight_count(), 0u);
  // Re-leasable by another worker.
  auto again = dm.lease_next("w1", 6.0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->task_id, 0u);
}

TEST(DataManager, LateResultAfterExpiryStillFirstWins) {
  DataManager dm(5.0);
  dm.add_task(0, {});
  dm.lease_next("w0", 0.0);
  dm.expire_leases(10.0);
  dm.lease_next("w1", 10.0);
  // The original (slow) worker returns first; its result is accepted.
  EXPECT_TRUE(dm.complete(0, "w0", 11.0));
  // The re-issued copy arrives later and is discarded.
  EXPECT_FALSE(dm.complete(0, "w1", 12.0));
  EXPECT_TRUE(dm.all_done());
  EXPECT_EQ(dm.completed_count(), 1u);
}

TEST(DataManager, CompletedTaskSkippedWhenRequeued) {
  DataManager dm(5.0);
  dm.add_task(0, {});
  dm.add_task(1, {});
  dm.lease_next("w0", 0.0);
  dm.expire_leases(5.0);  // task 0 back in the queue
  dm.complete(0, "w0", 6.0);  // but then it completes
  // The stale queue entry for task 0 must be skipped; we get task 1.
  auto next = dm.lease_next("w1", 7.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->task_id, 1u);
}

TEST(DataManager, AllDoneSemantics) {
  DataManager dm(10.0);
  EXPECT_TRUE(dm.all_done());  // vacuously: no tasks
  dm.add_task(0, {});
  EXPECT_FALSE(dm.all_done());
  dm.lease_next("w", 0.0);
  EXPECT_FALSE(dm.all_done());  // in flight is not done
  dm.complete(0, "w", 1.0);
  EXPECT_TRUE(dm.all_done());
}

TEST(DataManager, StatsAccumulate) {
  DataManager dm(5.0);
  dm.add_task(0, {});
  dm.add_task(1, {});
  dm.lease_next("w0", 0.0);   // task 0 -> w0
  dm.expire_leases(5.0);      // task 0 requeued behind task 1
  auto second = dm.lease_next("w1", 6.0);  // task 1 -> w1 (FIFO)
  ASSERT_TRUE(second && second->task_id == 1u);
  auto third = dm.lease_next("w0", 6.5);  // task 0 re-assigned
  ASSERT_TRUE(third && third->task_id == 0u);
  dm.complete(1, "w1", 7.0);
  dm.complete(0, "w0", 8.0);
  const DataManagerStats stats = dm.stats();
  EXPECT_EQ(stats.tasks_added, 2u);
  EXPECT_EQ(stats.assignments, 3u);  // task 0 twice, task 1 once
  EXPECT_EQ(stats.completions, 2u);
  EXPECT_EQ(stats.lease_expirations, 1u);
}

TEST(DataManager, ManyTasksDrainCompletely) {
  DataManager dm(10.0);
  constexpr std::uint64_t kTasks = 500;
  for (std::uint64_t i = 0; i < kTasks; ++i) dm.add_task(i, {});
  std::uint64_t drained = 0;
  while (auto task = dm.lease_next("w", 0.0)) {
    dm.complete(task->task_id, "w", 1.0);
    ++drained;
  }
  EXPECT_EQ(drained, kTasks);
  EXPECT_TRUE(dm.all_done());
  EXPECT_EQ(dm.completed_count(), kTasks);
}

TEST(DataManager, CompletesWithoutASink) {
  // Tasks that carry no result (the cluster simulator's) need no sink.
  DataManager dm(10.0);
  dm.add_task(0, payload_of(1));
  dm.lease_next("w0", 0.0);
  EXPECT_TRUE(dm.complete(0, "w0", 1.0, {10}));
  EXPECT_TRUE(dm.all_done());
}

TEST(DataManager, TasksListsEveryTaskInIdOrder) {
  DataManager dm(10.0);
  dm.add_task(2, payload_of(12));
  dm.add_task(0, payload_of(10));
  dm.add_task(1, payload_of(11));
  dm.lease_next("w0", 0.0);
  dm.complete(2, "w0", 1.0);
  EXPECT_EQ(dm.tasks(), (std::vector<TaskRecord>{{0, payload_of(10)},
                                                 {1, payload_of(11)},
                                                 {2, payload_of(12)}}));
}

TEST(DataManagerCheckpoint, FileRoundTripRestoresTasksAndPending) {
  const std::string path = ::testing::TempDir() + "phodis_dm_ckpt.bin";
  {
    DataManager dm(10.0);
    for (std::uint8_t i = 0; i < 6; ++i) dm.add_task(i, payload_of(i));
    for (int i = 0; i < 3; ++i) {
      const auto lease = dm.lease_next("w0", 0.0);
      ASSERT_TRUE(lease.has_value());
      dm.complete(lease->task_id, "w0", 1.0,
                  payload_of(static_cast<std::uint8_t>(100 + i)));
    }
    // One in-flight lease: must come back as pending, not lost.
    ASSERT_TRUE(dm.lease_next("w1", 0.0).has_value());
    dm.checkpoint_to_file(path);
  }

  DataManager restored(10.0);
  std::vector<std::uint64_t> sunk;  // set before restore completes tasks
  restored.set_result_sink(
      [&sunk](std::uint64_t id, std::vector<std::uint8_t>) {
        sunk.push_back(id);
      });
  restored.restore_from_file(path);
  EXPECT_EQ(restored.completed_count(), 3u);
  EXPECT_EQ(restored.pending_count(), 3u);  // incl. the in-flight one
  EXPECT_EQ(restored.in_flight_count(), 0u);
  ASSERT_EQ(restored.tasks().size(), 6u);
  EXPECT_EQ(restored.tasks()[5].payload, payload_of(5));
  // The rest of the pool still drains normally; only its results reach
  // the sink (the first three were the sink owner's to checkpoint).
  while (auto task = restored.lease_next("w2", 0.0)) {
    restored.complete(task->task_id, "w2", 1.0, {7});
  }
  EXPECT_TRUE(restored.all_done());
  EXPECT_EQ(sunk, (std::vector<std::uint64_t>{3, 4, 5}));
  std::remove(path.c_str());
}

TEST(DataManagerCheckpoint, AtomicRewriteKeepsFileValid) {
  const std::string path = ::testing::TempDir() + "phodis_dm_rewrite.bin";
  DataManager dm(10.0);
  dm.add_task(0, payload_of(1));
  dm.checkpoint_to_file(path);
  dm.lease_next("w0", 0.0);
  dm.complete(0, "w0", 1.0, payload_of(42));
  dm.checkpoint_to_file(path);  // rename over the previous snapshot
  DataManager restored(10.0);
  restored.restore_from_file(path);
  EXPECT_TRUE(restored.all_done());
  std::remove(path.c_str());
}

TEST(DataManagerCheckpoint, RejectsMissingAndMalformedFiles) {
  DataManager dm(10.0);
  EXPECT_THROW(dm.restore_from_file("/nonexistent/phodis.ckpt"),
               std::runtime_error);

  const std::string path = ::testing::TempDir() + "phodis_dm_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  EXPECT_THROW(dm.restore_from_file(path), std::invalid_argument);
  EXPECT_EQ(dm.pending_count(), 0u);  // untouched
  std::remove(path.c_str());
}

TEST(DataManagerCheckpoint, RefusesAVersion2File) {
  // A version-2 file: magic, version, empty sink blob, one completed task
  // with its payload and the per-task result blob that v3 dropped.
  const std::string path = ::testing::TempDir() + "phodis_dm_v2.bin";
  util::ByteWriter writer;
  for (char byte : {'P', 'H', 'O', 'D', 'C', 'K', 'P', 'T'}) {
    writer.u8(static_cast<std::uint8_t>(byte));
  }
  writer.u32(2);
  writer.blob({});
  writer.u64(1);
  writer.u64(0);
  writer.boolean(true);
  writer.blob(payload_of(1));
  writer.blob(payload_of(42));
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.size()));
  }
  DataManager dm(10.0);
  try {
    dm.restore_from_file(path);
    ADD_FAILURE() << "a version-2 checkpoint was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("version 2"), std::string::npos)
        << error.what();
  }
  EXPECT_TRUE(dm.tasks().empty());  // untouched
  std::remove(path.c_str());
}

TEST(DataManagerCheckpoint, RestoreRequiresEmptyManager) {
  const std::string path = ::testing::TempDir() + "phodis_dm_nonempty.bin";
  DataManager dm(10.0);
  dm.add_task(0, payload_of(1));
  dm.checkpoint_to_file(path);
  EXPECT_THROW(dm.restore_from_file(path), std::logic_error);
  std::remove(path.c_str());
}

// ---------- result streaming (set_result_sink) -------------------------------

TEST(DataManagerSink, ReceivesEachFirstResultExactlyOnce) {
  DataManager dm(10.0);
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> sunk;
  dm.set_result_sink([&sunk](std::uint64_t id, std::vector<std::uint8_t> b) {
    sunk.emplace_back(id, std::move(b));
  });
  dm.add_task(0, payload_of(1));
  dm.add_task(1, payload_of(2));
  dm.lease_next("w0", 0.0);
  dm.lease_next("w1", 0.0);
  EXPECT_TRUE(dm.complete(1, "w1", 1.0, {21}));   // out of id order
  EXPECT_FALSE(dm.complete(1, "w0", 1.5, {99}));  // duplicate: not sunk
  EXPECT_TRUE(dm.complete(0, "w0", 2.0, {10}));

  ASSERT_EQ(sunk.size(), 2u);  // completion order, exactly once each
  EXPECT_EQ(sunk[0].first, 1u);
  EXPECT_EQ(sunk[0].second, (std::vector<std::uint8_t>{21}));
  EXPECT_EQ(sunk[1].first, 0u);
  EXPECT_TRUE(dm.all_done());
}

TEST(DataManagerSink, MustBeSetBeforeAnyCompletion) {
  DataManager dm(10.0);
  dm.add_task(0, payload_of(1));
  dm.lease_next("w0", 0.0);
  dm.complete(0, "w0", 1.0, {5});
  EXPECT_THROW(dm.set_result_sink([](std::uint64_t,
                                     std::vector<std::uint8_t>) {}),
               std::logic_error);
}

TEST(DataManagerCheckpoint, CarriesTheSinkStateBlob) {
  const std::string path = ::testing::TempDir() + "phodis_dm_sink.bin";
  const std::vector<std::uint8_t> state = {7, 7, 7, 42};
  DataManager dm(10.0);
  dm.add_task(0, payload_of(1));
  dm.checkpoint_to_file(path, state);

  DataManager restored(10.0);
  EXPECT_EQ(restored.restore_from_file(path), state);
  EXPECT_EQ(restored.pending_count(), 1u);
  std::remove(path.c_str());
}

TEST(DataManagerCheckpoint, EmptySinkStateByDefault) {
  const std::string path = ::testing::TempDir() + "phodis_dm_nosink.bin";
  DataManager dm(10.0);
  dm.add_task(0, payload_of(1));
  dm.checkpoint_to_file(path);
  DataManager restored(10.0);
  EXPECT_TRUE(restored.restore_from_file(path).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace phodis::dist
