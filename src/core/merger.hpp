// IncrementalTallyMerger — server-side result streaming.
//
// Folds each task's serialised tally as it arrives, so the server never
// holds every result (for a 1e9-photon run with voxel grids that would
// be gigabytes), while keeping the repo's bitwise-reproducibility
// invariant: tallies are only ever merged in task-id order, so a result
// arriving ahead of its turn waits in a small reorder buffer until the
// contiguous prefix reaches it.
// Memory is bounded by the out-of-order window (at most the number of
// in-flight leases, not the number of completed tasks).
//
// Designed to sit behind DataManager::set_result_sink; fold() is
// thread-safe and the whole state (merged tally, fold frontier, reorder
// buffer) round-trips through state_bytes()/restore for checkpointing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "core/spec.hpp"
#include "mc/tally.hpp"

namespace phodis::core {

class IncrementalTallyMerger {
 public:
  /// The spec whose tasks are being merged (shapes the empty tally).
  explicit IncrementalTallyMerger(const SimulationSpec& spec);

  /// Accept task `task_id`'s serialised tally. Folds it immediately if
  /// it extends the contiguous prefix 0..n (draining any buffered
  /// successors), otherwise buffers it. A task at or below the frontier
  /// is ignored (already folded — e.g. a replay after restore).
  void fold(std::uint64_t task_id, std::vector<std::uint8_t> bytes);

  /// Next task id to fold: every id below it is already in merged().
  std::uint64_t frontier() const;

  /// Results waiting for the prefix to reach them.
  std::size_t buffered_count() const;

  /// The merged tally over tasks [0, frontier()).
  mc::SimulationTally merged() const;

  /// Serialise frontier + merged tally + reorder buffer.
  std::vector<std::uint8_t> state_bytes() const;

  /// Rebuild from state_bytes(). Only valid before any fold; malformed
  /// input throws, as does a state whose tally config differs from the
  /// spec's or whose buffered ids are not all above its frontier. An
  /// empty blob is a no-op (fresh run).
  void restore(const std::vector<std::uint8_t>& bytes);

 private:
  mutable std::mutex mutex_;
  mc::SimulationTally merged_;
  std::uint64_t next_id_ = 0;  ///< fold frontier
  std::map<std::uint64_t, std::vector<std::uint8_t>> buffer_;
};

}  // namespace phodis::core
