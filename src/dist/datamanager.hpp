// DataManager — the server-side task pool of the paper's platform.
//
//   "The DataManager, which resides on the server, assigns simulations to
//    client PCs and processes the returned results."
//
// Tasks are leased to workers FIFO with a deadline; a lease that expires
// (worker too slow, dead, or its assignment lost on the wire) puts the
// task back in the queue. Completion is exactly-once: the first result
// for a task wins, late or duplicate copies are counted and discarded.
// All operations are thread-safe. Time is passed in explicitly (seconds,
// any monotonic origin), never read, so whoever steps the manager owns
// the clock: dist::ServerCore passes on the time of each step, which is
// the wall clock under dist::run_server_loop and virtual time under
// cluster::ClusterSimulator (whose leases are infinite: an infinite
// lease duration never expires).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace phodis::dist {

/// One unit of work: an opaque payload keyed by task id.
struct TaskRecord {
  std::uint64_t task_id = 0;
  std::vector<std::uint8_t> payload;
};

struct DataManagerStats {
  std::uint64_t tasks_added = 0;
  std::uint64_t assignments = 0;        ///< leases issued (re-issues count)
  std::uint64_t completions = 0;        ///< first-time completions
  std::uint64_t lease_expirations = 0;  ///< leases reclaimed by expiry
  std::uint64_t duplicate_results = 0;  ///< results for already-done tasks
  std::uint64_t unknown_results = 0;    ///< results for unknown task ids
};

/// Receives each task's first-accepted result bytes exactly once (see
/// set_result_sink). Invoked outside the manager's lock, in completion
/// order; must be thread-safe if complete() is called concurrently.
using ResultSink =
    std::function<void(std::uint64_t task_id, std::vector<std::uint8_t>)>;

class DataManager {
 public:
  /// `lease_duration_s` must be > 0; infinity means leases never expire.
  explicit DataManager(double lease_duration_s);

  /// Register a new task. Duplicate ids (including completed ones) throw.
  void add_task(std::uint64_t task_id, std::vector<std::uint8_t> payload);

  /// Lease the oldest pending task to `worker` until now + lease duration.
  std::optional<TaskRecord> lease_next(const std::string& worker, double now);

  /// Accept a result. Returns true exactly once per task — for the first
  /// result, from whichever worker delivers it (even one whose lease has
  /// since expired). Duplicates and unknown ids return false. The
  /// first-accepted `result` bytes are retained (the paper's DataManager
  /// "processes the returned results"); late copies are discarded.
  bool complete(std::uint64_t task_id, const std::string& worker, double now,
                std::vector<std::uint8_t> result = {});

  /// Stream results instead of retaining them: every first-accepted
  /// result is handed to `sink` and its bytes are no longer stored, so
  /// server memory stays bounded however many tasks complete (the
  /// ROADMAP's 1e9-photon concern). Must be set before any completion;
  /// exactly-once semantics are unchanged (duplicates never reach the
  /// sink). results() returns an empty map in this mode — the sink owner
  /// holds the reduced state and persists it via the checkpoint
  /// `sink_state` parameter.
  void set_result_sink(ResultSink sink);

  /// First-accepted result bytes of every completed task, keyed by id
  /// (empty when a result sink is streaming them instead).
  std::map<std::uint64_t, std::vector<std::uint8_t>> results() const;

  /// Requeue every lease whose deadline has been reached. Returns how
  /// many were reclaimed.
  std::size_t expire_leases(double now);

  /// Requeue every task currently leased to `worker` (worker declared
  /// dead). Returns how many leases were reclaimed.
  std::size_t evict_worker(const std::string& worker);

  std::size_t pending_count() const;
  std::size_t in_flight_count() const;
  std::uint64_t completed_count() const;
  /// True when every registered task has completed (vacuously true when
  /// no tasks were ever added).
  bool all_done() const;

  DataManagerStats stats() const;

  /// Serialise the pool: every task's payload, its completion bit, and
  /// (for completed tasks) its result bytes. In-flight leases are not
  /// persisted — on restore they are pending again (the restore-side
  /// server re-issues them).
  void checkpoint(util::ByteWriter& writer) const;

  /// Rebuild the pool from a checkpoint. Only valid on a manager that
  /// has never held tasks (throws std::logic_error otherwise); malformed
  /// input throws without mutating the manager.
  void restore(util::ByteReader& reader);

  /// Persist a checkpoint to disk atomically: the bytes are written to
  /// `path`.tmp and renamed over `path`, so a crash mid-write leaves
  /// either the previous checkpoint or the new one, never a torn file.
  /// `sink_state` is an opaque blob stored alongside the pool (the
  /// result sink's reduced state in streaming mode; empty otherwise).
  /// Throws std::runtime_error on I/O failure.
  void checkpoint_to_file(const std::string& path,
                          const std::vector<std::uint8_t>& sink_state = {})
      const;

  /// Restore from a file written by checkpoint_to_file and return the
  /// sink-state blob it carried (empty when none). Same preconditions
  /// as restore(); additionally validates the file's magic and format
  /// version.
  std::vector<std::uint8_t> restore_from_file(const std::string& path);

 private:
  enum class State : std::uint8_t { kPending, kInFlight, kCompleted };

  struct Task {
    std::vector<std::uint8_t> payload;
    State state = State::kPending;
    std::string worker;                ///< lease holder when in flight
    double lease_deadline = 0.0;       ///< when in flight
    std::vector<std::uint8_t> result;  ///< when completed
  };

  mutable std::mutex mutex_;
  double lease_duration_s_;
  ResultSink result_sink_;  ///< when set, results stream instead of persist
  std::map<std::uint64_t, Task> tasks_;
  /// FIFO of candidate ids; may hold stale entries for tasks that left
  /// the pending state (lease_next skips those lazily).
  std::deque<std::uint64_t> queue_;
  std::size_t pending_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t completed_ = 0;
  DataManagerStats stats_;
};

}  // namespace phodis::dist
