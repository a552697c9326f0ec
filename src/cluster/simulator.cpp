#include "cluster/simulator.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

#include "dist/datamanager.hpp"
#include "dist/server_core.hpp"
#include "util/rng.hpp"

namespace phodis::cluster {

void LoadModel::validate() const {
  if (!(min_availability > 0.0) || min_availability > max_availability ||
      max_availability > 1.0) {
    throw std::invalid_argument(
        "LoadModel: need 0 < min_availability <= max_availability <= 1");
  }
}

void ClusterConfig::validate() const {
  if (fleet.empty()) {
    throw std::invalid_argument("ClusterConfig: empty fleet");
  }
  for (const NodeSpec& node : fleet) {
    if (!(node.mflops > 0.0)) {
      throw std::invalid_argument("ClusterConfig: node rate must be > 0");
    }
  }
  if (total_photons == 0 || chunk_photons == 0) {
    throw std::invalid_argument("ClusterConfig: photon counts must be > 0");
  }
  if (!(network.bandwidth_bps > 0.0) || network.latency_s < 0.0) {
    throw std::invalid_argument("ClusterConfig: bad network model");
  }
  if (!(cost.flops_per_photon > 0.0)) {
    throw std::invalid_argument("ClusterConfig: flops_per_photon must be > 0");
  }
  load.validate();
}

double ClusterReport::server_utilisation() const noexcept {
  return makespan_s > 0.0 ? server_busy_s / makespan_s : 0.0;
}

double ClusterReport::mean_node_utilisation() const noexcept {
  if (nodes.empty() || makespan_s <= 0.0) return 0.0;
  double sum = 0.0;
  for (const NodeReport& node : nodes) sum += node.busy_s / makespan_s;
  return sum / static_cast<double>(nodes.size());
}

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

ClusterReport ClusterSimulator::run() {
  const std::vector<std::uint64_t> chunks =
      dist::chunk_plan(config_.total_photons, config_.chunk_photons);
  if (config_.mode == ScheduleMode::kStatic) {
    // Default static policy when none is supplied explicitly.
    dist::GreedyScheduler greedy;
    return run_static(greedy);
  }
  return run_with_assignment(chunks, std::nullopt);
}

ClusterReport ClusterSimulator::run_static(dist::StaticScheduler& scheduler) {
  const std::vector<std::uint64_t> chunks =
      dist::chunk_plan(config_.total_photons, config_.chunk_photons);
  std::vector<double> sizes(chunks.begin(), chunks.end());
  std::vector<double> rates;
  rates.reserve(config_.fleet.size());
  for (const NodeSpec& node : config_.fleet) rates.push_back(node.mflops);
  const dist::Schedule schedule = scheduler.schedule(sizes, rates);
  return run_with_assignment(chunks, schedule.assignment);
}

ClusterReport ClusterSimulator::run_with_assignment(
    const std::vector<std::uint64_t>& chunks,
    const std::optional<std::vector<std::size_t>>& assignment) {
  enum class Kind : std::uint8_t { kRequest, kResult };
  struct Event {
    double time;
    std::uint64_t seq;  // tie-break so ordering is fully deterministic
    std::size_t node;
    Kind kind;
    std::uint64_t task_id;  // for kResult
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  const std::size_t node_count = config_.fleet.size();
  if (assignment && assignment->size() != chunks.size()) {
    throw std::invalid_argument("static assignment size mismatch");
  }

  // The server's task pools, leased by the runtime's own ServerCore:
  // one DataManager holding the whole chunk plan (dynamic), or one per
  // node holding that node's schedule in order (static). Task j is
  // chunks[j]. Leases never expire: the model has no failures.
  const std::size_t pool_count = assignment ? node_count : 1;
  std::deque<dist::DataManager> managers;
  std::vector<dist::ServerCore> cores;
  cores.reserve(pool_count);
  for (std::size_t p = 0; p < pool_count; ++p) {
    cores.emplace_back(
        managers.emplace_back(std::numeric_limits<double>::infinity()));
  }
  for (std::size_t j = 0; j < chunks.size(); ++j) {
    managers[assignment ? (*assignment)[j] : 0].add_task(j, {});
  }
  const auto step = [&](std::size_t node, dist::MessageType type,
                        std::uint64_t task_id, double now) {
    dist::Message msg;
    msg.type = type;
    msg.task_id = task_id;
    msg.sender = config_.fleet[node].name;
    return cores[assignment ? node : 0].on_message(std::move(msg), now);
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < node_count; ++i) {
    queue.push(Event{0.0, seq++, i, Kind::kRequest, 0});
  }

  util::Xoshiro256pp rng(config_.seed);
  double server_free = 0.0;
  ClusterReport report;
  report.nodes.resize(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    report.nodes[i].name = config_.fleet[i].name;
  }

  // Each event is one message stepped through the core at the virtual
  // time the serial server gets to it.
  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();

    if (ev.kind == Kind::kRequest) {
      const double assign_start = std::max(ev.time, server_free);
      const dist::ServerStep lease =
          step(ev.node, dist::MessageType::kRequestWork, 0, assign_start);
      // NoWork or Shutdown: the node idles out. (Retrying a NoWork on
      // virtual time is not modelled; without failures a leased task
      // never comes back.)
      if (lease.reply->message.type != dist::MessageType::kAssignTask) {
        continue;
      }
      const std::uint64_t task_id = lease.reply->message.task_id;
      const std::uint64_t photons = chunks[task_id];
      server_free = assign_start + config_.cost.assign_cost_s;
      report.server_busy_s += config_.cost.assign_cost_s;

      const double node_start =
          server_free + config_.network.transfer_s(config_.cost.task_bytes);
      const double availability = rng.uniform(config_.load.min_availability,
                                              config_.load.max_availability);
      const double compute_s =
          static_cast<double>(photons) * config_.cost.flops_per_photon /
          (config_.fleet[ev.node].mflops * 1.0e6 * availability);
      const double result_at_server =
          node_start + compute_s +
          config_.network.transfer_s(config_.cost.result_bytes);

      NodeReport& nr = report.nodes[ev.node];
      ++nr.tasks_completed;
      nr.photons_computed += photons;
      nr.busy_s += compute_s;

      queue.push(Event{result_at_server, seq++, ev.node, Kind::kResult,
                       task_id});
    } else {
      const double merge_start = std::max(ev.time, server_free);
      if (step(ev.node, dist::MessageType::kTaskResult, ev.task_id,
               merge_start)
              .accepted_task) {
        ++report.tasks;
      }
      server_free = merge_start + config_.cost.merge_cost_s;
      report.server_busy_s += config_.cost.merge_cost_s;
      report.makespan_s = server_free;
      // A modelling choice of this driver, not of the core: the client's
      // next work request rides along with its result (the real protocol
      // sends a separate RequestWork frame).
      queue.push(Event{ev.time, seq++, ev.node, Kind::kRequest, 0});
    }
  }
  return report;
}

std::vector<SpeedupPoint> speedup_series(
    const ClusterConfig& base_config, std::size_t max_nodes,
    const std::vector<std::size_t>& node_counts) {
  if (base_config.fleet.empty()) {
    throw std::invalid_argument("speedup_series: base fleet empty");
  }
  const NodeSpec prototype = base_config.fleet.front();

  auto run_with = [&](std::size_t k) {
    ClusterConfig config = base_config;
    config.fleet.assign(k, prototype);
    for (std::size_t i = 0; i < k; ++i) {
      config.fleet[i].name = prototype.name + "-" + std::to_string(i);
    }
    return ClusterSimulator(config).run().makespan_s;
  };

  const double t1 = run_with(1);
  std::vector<SpeedupPoint> series;
  for (std::size_t k : node_counts) {
    if (k == 0 || k > max_nodes) continue;
    SpeedupPoint point;
    point.processors = k;
    point.makespan_s = run_with(k);
    point.speedup = t1 / point.makespan_s;
    point.efficiency = point.speedup / static_cast<double>(k);
    series.push_back(point);
  }
  return series;
}

}  // namespace phodis::cluster
