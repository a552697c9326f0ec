// Cluster-throughput walkthrough: a real run on the in-process platform
// (worker slots over local sockets) with fault injection, showing the
// DataManager statistics a platform operator sees, checked bitwise
// against a serial run. The simulated fleets are bench_fig2_speedup's
// (Fig. 2) and bench_table2's (Table 2 projection).
//
// Run: ./cluster_throughput [--photons 60000] [--workers 4]
#include <iostream>

#include "core/app.hpp"
#include "dist/scheduler.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 60'000);
  const auto workers = args.get_count("workers", 4);

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
            << (bitwise ? "yes" : "NO") << "\n";
  return bitwise ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
