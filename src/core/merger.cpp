#include "core/merger.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "mc/kernel.hpp"

namespace phodis::core {

IncrementalTallyMerger::IncrementalTallyMerger(const SimulationSpec& spec)
    : merged_(mc::Kernel(spec.kernel).make_tally()) {}

void IncrementalTallyMerger::fold(std::uint64_t task_id,
                                  std::vector<std::uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (task_id < next_id_) return;  // already folded (replay after restore)
  if (task_id != next_id_) {
    buffer_.emplace(task_id, std::move(bytes));
    return;
  }
  // Extend the contiguous prefix, draining any buffered successors —
  // the same task-id-order fold as MonteCarloApp::run_serial.
  util::ByteReader reader(bytes);
  merged_.merge(mc::SimulationTally::deserialize(reader));
  ++next_id_;
  for (auto it = buffer_.begin();
       it != buffer_.end() && it->first == next_id_;
       it = buffer_.erase(it)) {
    util::ByteReader buffered(it->second);
    merged_.merge(mc::SimulationTally::deserialize(buffered));
    ++next_id_;
  }
}

std::uint64_t IncrementalTallyMerger::frontier() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_;
}

std::size_t IncrementalTallyMerger::buffered_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

mc::SimulationTally IncrementalTallyMerger::merged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return merged_;
}

std::vector<std::uint8_t> IncrementalTallyMerger::state_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::ByteWriter writer;
  writer.reserve(1024);
  writer.u64(next_id_);
  merged_.serialize(writer);
  writer.u64(buffer_.size());
  for (const auto& [task_id, bytes] : buffer_) {
    writer.u64(task_id);
    writer.blob(bytes);
  }
  return writer.take();
}

void IncrementalTallyMerger::restore(const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return;
  util::ByteReader reader(bytes);
  const std::uint64_t next_id = reader.u64();
  mc::SimulationTally merged = mc::SimulationTally::deserialize(reader);
  const std::uint64_t buffered = reader.u64();
  std::map<std::uint64_t, std::vector<std::uint8_t>> buffer;
  for (std::uint64_t i = 0; i < buffered; ++i) {
    const std::uint64_t task_id = reader.u64();
    buffer.emplace(task_id, reader.blob());
  }
  if (!reader.exhausted()) {
    throw std::length_error(
        "IncrementalTallyMerger: trailing bytes in state");
  }
  // A buffered id at or below the frontier would never be drained, so
  // the frontier would stall short of the plan.
  if (!buffer.empty() && buffer.begin()->first <= next_id) {
    throw std::invalid_argument(
        "IncrementalTallyMerger: buffered task " +
        std::to_string(buffer.begin()->first) + " is not above frontier " +
        std::to_string(next_id));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (next_id_ != 0 || !buffer_.empty()) {
    throw std::logic_error(
        "IncrementalTallyMerger: restore target already holds results");
  }
  // merged_ is still the spec's empty tally: a state of another shape
  // would make every later fold throw.
  if (merged.config() != merged_.config()) {
    throw std::invalid_argument(
        "IncrementalTallyMerger: state's tally config differs from the "
        "spec's");
  }
  merged_ = std::move(merged);
  next_id_ = next_id;
  buffer_ = std::move(buffer);
}

}  // namespace phodis::core
