// Table 2 — "Distributed system resources": the 150 heterogeneous
// non-dedicated clients of the paper's production runs. Prints the fleet
// rows, the aggregate compute rate, and the projected duration of the
// paper's 10^9-photon production run on this fleet (the paper reports
// "approximately 2 hours").
#include <iostream>

#include "cluster/fleet.hpp"
#include "cluster/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& /*args*/) {
  using namespace phodis;

  std::cout << "=== Table 2: Distributed system resources ===\n\n";
  util::TextTable table({"#", "Mflop/s", "RAM (MB)", "O/S", "Processor"});
  for (const cluster::Table2Row& row : cluster::table2_rows()) {
    std::string rate =
        row.mflops_lo == row.mflops_hi
            ? util::format_double(row.mflops_lo)
            : util::format_double(row.mflops_lo) + "-" +
                  util::format_double(row.mflops_hi);
    table.add_row({std::to_string(row.count), rate,
                   std::to_string(row.ram_mb), row.os, row.cpu});
  }
  table.print(std::cout);

  const auto fleet = cluster::table2_fleet();
  const double aggregate = cluster::aggregate_mflops(fleet);
  std::cout << "\nClients: " << fleet.size()
            << "   aggregate rate: " << aggregate << " Mflop/s\n";

  // Project the paper's production run (10^9 photon paths) on this fleet
  // with the calibrated per-photon cost and non-dedicated load.
  cluster::ClusterConfig config;
  config.fleet = fleet;
  config.total_photons = 1'000'000'000;
  config.chunk_photons = 250'000;
  const cluster::ClusterReport report =
      cluster::ClusterSimulator(config).run();
  std::cout << "Simulated 1e9-photon production run on the Table 2 fleet: "
            << report.makespan_s / 3600.0 << " hours (paper: ~2 hours)\n";
  std::cout << "Server utilisation: " << report.server_utilisation() * 100.0
            << " %   mean client utilisation: "
            << report.mean_node_utilisation() * 100.0 << " %\n";

  const bool ok = fleet.size() == 150 && report.makespan_s > 0.0;
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
