// Cluster-throughput walkthrough: the distributed side of the paper from
// both angles —
//   1. a *real* run on the in-process platform (worker slots over local
//      sockets) with fault injection, showing the DataManager statistics
//      a platform operator sees, checked bitwise against a serial run;
//   2. the *simulated* fleets: speedup on 60 homogeneous P4s (Fig. 2) and
//      a production projection on the 150-client Table 2 fleet.
//
// Run: ./cluster_throughput [--photons 60000] [--workers 4]
#include <iostream>

#include "cluster/fleet.hpp"
#include "cluster/simulator.hpp"
#include "core/app.hpp"
#include "dist/scheduler.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace phodis;
  const util::CliArgs args(argc, argv);
  const auto photons =
      static_cast<std::uint64_t>(args.get_int("photons", 60'000));
  const auto workers =
      static_cast<std::size_t>(args.get_int("workers", 4));

  // --- 1. Real platform run with injected faults ----------------------------
  std::cout << "== Real distributed run (local sockets, " << workers
            << " workers, 5% frame loss, 10% worker deaths) ==\n\n";
  core::SimulationSpec spec;
  spec.kernel.medium = mc::homogeneous_grey_matter();
  spec.photons = photons;
  spec.seed = 11;

  core::MonteCarloApp app(spec);
  core::ExecutionOptions options;
  options.workers = workers;
  // Pin the chunk size so the serial cross-check below uses the *same*
  // task plan (auto-chunking scales with worker count).
  options.chunk_photons = dist::suggest_chunk_size(photons, workers);
  options.transport_faults.drop_probability = 0.05;
  options.worker_death_probability = 0.10;
  options.lease_duration_s = 1.0;
  const core::RunSummary summary = app.run_distributed(options);

  util::TextTable stats({"metric", "value"});
  stats.add_row({"tasks", std::to_string(summary.tasks)});
  stats.add_row({"completions",
                 std::to_string(summary.manager_stats.completions)});
  stats.add_row({"re-issued leases",
                 std::to_string(summary.manager_stats.lease_expirations)});
  stats.add_row({"duplicate results discarded",
                 std::to_string(summary.manager_stats.duplicate_results)});
  stats.add_row({"frames sent / dropped",
                 std::to_string(summary.frames_sent) + " / " +
                     std::to_string(summary.frames_dropped)});
  stats.add_row({"workers died", std::to_string(summary.workers_died)});
  stats.add_row({"wall seconds",
                 util::format_double(summary.wall_seconds, 4)});
  stats.add_row({"diffuse reflectance",
                 util::format_double(summary.tally.diffuse_reflectance(), 6)});
  stats.print(std::cout);

  const bool bitwise = app.run_serial(options.chunk_photons).to_bytes() ==
                       summary.tally.to_bytes();
  std::cout << "\nserial re-run matches distributed bitwise: "
            << (bitwise ? "yes" : "NO") << "\n\n";
  if (!bitwise) return 1;

  // --- 2. Simulated fleets ----------------------------------------------------
  std::cout << "== Simulated fleets (discrete-event model) ==\n\n";
  cluster::ClusterConfig homogeneous;
  homogeneous.fleet = cluster::homogeneous_p4_fleet(1);
  homogeneous.total_photons = 1'000'000'000;
  homogeneous.chunk_photons = 1'000'000;
  homogeneous.load.min_availability = 0.9;
  const auto series =
      cluster::speedup_series(homogeneous, 60, {1, 15, 30, 60});
  util::TextTable fleet_table({"processors", "hours", "speedup",
                               "efficiency"});
  for (const auto& point : series) {
    fleet_table.add_row({std::to_string(point.processors),
                         util::format_double(point.makespan_s / 3600.0, 4),
                         util::format_double(point.speedup, 4),
                         util::format_double(point.efficiency, 4)});
  }
  fleet_table.print(std::cout);

  cluster::ClusterConfig production;
  production.fleet = cluster::table2_fleet();
  production.total_photons = 1'000'000'000;
  production.chunk_photons = 250'000;
  const auto report = cluster::ClusterSimulator(production).run();
  std::cout << "\nTable 2 fleet (150 clients, non-dedicated): 1e9 photons "
               "in "
            << report.makespan_s / 3600.0 << " hours (paper: ~2 h)\n";
  return 0;
}
