// Discrete-event simulator of the master/worker platform on a fleet.
//
// This is the substitution substrate for the paper's physical clusters
// (README.md "Benches and examples"): their 60 Pentium IVs and 150
// non-dedicated clients are not at hand, so Fig. 2's 60-processor
// speedup is regenerated by simulating the quantities that wall-clock time
// actually depends on —
//   * per-node compute rate [Mflop/s] and its stochastic degradation on
//     non-dedicated machines,
//   * network latency and bandwidth for task/result transfer,
//   * the server's serial cost to assign a task and merge a result (the
//     1/efficiency term that keeps speedup below linear),
// driven by the same scheduling code the real runtime uses: the
// simulator is a virtual-clock driver of dist::ServerCore, the core that
// dist::run_server_loop drives over a Transport. Every lease and every
// accepted result goes through the core and a dist::DataManager —
// dynamic mode leases from one manager holding the chunk plan, static
// mode from one manager per node holding that node's schedule in order —
// while one serial server timeline charges the assign and merge costs.
//
// What the model leaves out, by choice of this driver:
//   * leases never expire: nodes do not fail, so none is reclaimed;
//   * a node's next work request rides along with its result (the real
//     protocol sends a separate RequestWork frame);
//   * a node answered NoWork idles out instead of retrying.
//
// The simulation is deterministic given its seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "dist/scheduler.hpp"

namespace phodis::cluster {

/// How the photon workload is turned into node assignments.
enum class ScheduleMode : std::uint8_t {
  kDynamic = 0,  ///< self-scheduling: idle node pulls the next chunk
  kStatic,       ///< precomputed assignment via a StaticScheduler
};

struct NetworkModel {
  double latency_s = 0.005;        ///< one-way message latency
  double bandwidth_bps = 1.25e7;   ///< bytes per second (100 Mbit LAN)

  double transfer_s(double bytes) const noexcept {
    return latency_s + bytes / bandwidth_bps;
  }
};

struct LoadModel {
  /// Per-task multiplicative availability of a non-dedicated node,
  /// sampled uniformly in [min_availability, max_availability]. 1.0/1.0
  /// models dedicated machines.
  double min_availability = 0.7;
  double max_availability = 1.0;

  void validate() const;
};

struct SimulationCost {
  double flops_per_photon = 1.0e5;  ///< kernel cost (calibrated; see bench)
  double task_bytes = 256.0;        ///< assignment payload on the wire
  double result_bytes = 64.0e3;     ///< partial-tally payload
  double assign_cost_s = 0.05;      ///< server CPU per assignment
  double merge_cost_s = 0.15;       ///< server CPU per result merge
};

struct ClusterConfig {
  std::vector<NodeSpec> fleet;
  std::uint64_t total_photons = 1'000'000'000;
  std::uint64_t chunk_photons = 1'000'000;
  ScheduleMode mode = ScheduleMode::kDynamic;
  NetworkModel network;
  LoadModel load;
  SimulationCost cost;
  std::uint64_t seed = 2006;

  void validate() const;
};

struct NodeReport {
  std::string name;
  std::uint64_t tasks_completed = 0;
  std::uint64_t photons_computed = 0;
  double busy_s = 0.0;  ///< time spent computing (not waiting)
};

struct ClusterReport {
  double makespan_s = 0.0;       ///< time the last result finished merging
  double server_busy_s = 0.0;    ///< total serial server work
  std::uint64_t tasks = 0;
  std::vector<NodeReport> nodes;

  /// Server serial fraction: busy / makespan.
  double server_utilisation() const noexcept;
  /// Mean node busy fraction.
  double mean_node_utilisation() const noexcept;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(ClusterConfig config);

  /// Run to completion (dynamic self-scheduling or a given static
  /// schedule) and report the makespan.
  ClusterReport run();

  /// Run with a static schedule produced by `scheduler` (mode kStatic).
  ClusterReport run_static(dist::StaticScheduler& scheduler);

  const ClusterConfig& config() const noexcept { return config_; }

 private:
  ClusterReport run_with_assignment(
      const std::vector<std::uint64_t>& chunks,
      const std::optional<std::vector<std::size_t>>& assignment);

  ClusterConfig config_;
};

/// Speedup/efficiency series for Fig. 2: simulate the same workload on
/// fleets of 1..max_nodes homogeneous processors.
struct SpeedupPoint {
  std::size_t processors = 0;
  double makespan_s = 0.0;
  double speedup = 0.0;
  double efficiency = 0.0;
};

std::vector<SpeedupPoint> speedup_series(
    const ClusterConfig& base_config, std::size_t max_nodes,
    const std::vector<std::size_t>& node_counts);

}  // namespace phodis::cluster
