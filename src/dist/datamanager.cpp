#include "dist/datamanager.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace phodis::dist {

namespace {
/// File header of checkpoint_to_file: 8 magic bytes + a format version.
/// Version 2 added the sink-state blob between the header and the task
/// table; version 3 dropped the per-task result blob. Files of any other
/// version are refused.
constexpr char kCheckpointMagic[8] = {'P', 'H', 'O', 'D', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kCheckpointVersion = 3;
}  // namespace

DataManager::DataManager(double lease_duration_s)
    : lease_duration_s_(lease_duration_s) {
  if (!(lease_duration_s > 0.0)) {
    throw std::invalid_argument("DataManager: lease duration must be > 0");
  }
}

void DataManager::add_task(std::uint64_t task_id,
                           std::vector<std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = tasks_.emplace(
      task_id, Task{std::move(payload), State::kPending, 0.0});
  if (!inserted) {
    throw std::invalid_argument("DataManager: duplicate task id " +
                                std::to_string(task_id));
  }
  queue_.push_back(task_id);
  ++pending_;
  ++stats_.tasks_added;
}

std::optional<TaskRecord> DataManager::lease_next(
    const std::string& /*worker*/, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!queue_.empty()) {
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    Task& task = tasks_.at(id);
    if (task.state != State::kPending) continue;  // stale queue entry
    task.state = State::kInFlight;
    task.lease_deadline = now + lease_duration_s_;
    --pending_;
    ++in_flight_;
    ++stats_.assignments;
    return TaskRecord{id, task.payload};
  }
  return std::nullopt;
}

bool DataManager::complete(std::uint64_t task_id,
                           const std::string& /*worker*/, double /*now*/,
                           std::vector<std::uint8_t> result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tasks_.find(task_id);
    if (it == tasks_.end()) {
      ++stats_.unknown_results;
      return false;
    }
    Task& task = it->second;
    switch (task.state) {
      case State::kCompleted:
        ++stats_.duplicate_results;
        return false;
      case State::kInFlight:
        --in_flight_;
        break;
      case State::kPending:
        // Expired-and-requeued task whose original worker finally answered;
        // its stale queue entry will be skipped by lease_next.
        --pending_;
        break;
    }
    task.state = State::kCompleted;
    ++completed_;
    ++stats_.completions;
  }
  // First acceptance only (duplicates returned above). Outside the lock
  // so the sink may use the manager (e.g. checkpoint) without
  // deadlocking.
  if (result_sink_) result_sink_(task_id, std::move(result));
  return true;
}

void DataManager::set_result_sink(ResultSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (completed_ != 0) {
    throw std::logic_error(
        "DataManager: result sink must be set before any completion");
  }
  result_sink_ = std::move(sink);
}

std::vector<TaskRecord> DataManager::tasks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TaskRecord> out;
  out.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) out.push_back({id, task.payload});
  return out;
}

std::size_t DataManager::expire_leases(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t reclaimed = 0;
  for (auto& [id, task] : tasks_) {
    if (task.state == State::kInFlight && now >= task.lease_deadline) {
      task.state = State::kPending;
      queue_.push_back(id);
      --in_flight_;
      ++pending_;
      ++stats_.lease_expirations;
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::size_t DataManager::pending_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

std::size_t DataManager::in_flight_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::uint64_t DataManager::completed_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

bool DataManager::all_done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_ == tasks_.size();
}

DataManagerStats DataManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void DataManager::checkpoint(util::ByteWriter& writer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  writer.u64(tasks_.size());
  for (const auto& [id, task] : tasks_) {
    writer.u64(id);
    writer.boolean(task.state == State::kCompleted);
    writer.blob(task.payload);
  }
}

void DataManager::restore(util::ByteReader& reader) {
  // Stage fully before touching any member, so malformed input (truncation,
  // duplicate ids) leaves the manager untouched.
  const std::uint64_t count = reader.u64();
  std::map<std::uint64_t, Task> staged;
  std::deque<std::uint64_t> staged_queue;
  std::uint64_t staged_completed = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = reader.u64();
    Task task;
    task.state = reader.boolean() ? State::kCompleted : State::kPending;
    task.payload = reader.blob();
    const bool completed = task.state == State::kCompleted;
    if (!staged.emplace(id, std::move(task)).second) {
      throw std::invalid_argument(
          "DataManager: duplicate task id in checkpoint");
    }
    if (completed) {
      ++staged_completed;
    } else {
      staged_queue.push_back(id);
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (!tasks_.empty()) {
    throw std::logic_error(
        "DataManager: restore target already holds tasks");
  }
  tasks_ = std::move(staged);
  queue_ = std::move(staged_queue);
  pending_ = queue_.size();
  completed_ = staged_completed;
  stats_.tasks_added += count;
}

void DataManager::checkpoint_to_file(
    const std::string& path,
    const std::vector<std::uint8_t>& sink_state) const {
  util::ByteWriter writer;
  for (char byte : kCheckpointMagic) {
    writer.u8(static_cast<std::uint8_t>(byte));
  }
  writer.u32(kCheckpointVersion);
  writer.blob(sink_state);
  checkpoint(writer);

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("DataManager: cannot open " + tmp_path +
                               " for writing");
    }
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("DataManager: short write to " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("DataManager: cannot rename " + tmp_path +
                             " over " + path);
  }
}

std::vector<std::uint8_t> DataManager::restore_from_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("DataManager: cannot open checkpoint " + path);
  }
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  util::ByteReader reader(bytes);
  for (char expected : kCheckpointMagic) {
    if (reader.u8() != static_cast<std::uint8_t>(expected)) {
      throw std::invalid_argument("DataManager: " + path +
                                  " is not a phodis checkpoint");
    }
  }
  if (const std::uint32_t version = reader.u32();
      version != kCheckpointVersion) {
    throw std::invalid_argument("DataManager: checkpoint version " +
                                std::to_string(version) + " not supported");
  }
  std::vector<std::uint8_t> sink_state = reader.blob();
  restore(reader);
  if (!reader.exhausted()) {
    throw std::length_error("DataManager: trailing bytes in checkpoint " +
                            path);
  }
  return sink_state;
}

}  // namespace phodis::dist
