// Fig. 2 — "Speedup graph with varying numbers of homogeneous processors
// for the distributed Monte Carlo simulation".
//
// Regenerates the speedup/efficiency series on the simulated homogeneous
// Pentium-IV fleet (README.md's "Benches and examples" says why the
// cluster is simulated).
// The paper reports near-linear speedup with >= 97% efficiency at 60
// processors; this bench prints the series and an ASCII speedup plot.
//
// A second, *measured* section re-takes the Fig. 2 curve on real
// hardware: the actual kernel through exec::ParallelKernelRunner at
// 1, 2, 4, ... threads, reporting photons/sec, speedup, and a bitwise
// cross-check against the 1-thread tally (exits non-zero on mismatch).
//
// Flags: --photons N (default 1e9), --chunk N (1e6), --max-procs K (60),
//        --measure-photons N (default 60000; 0 skips the measured
//        section), --measure-threads K (default max(4, cores))
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "cluster/simulator.hpp"
#include "core/app.hpp"
#include "exec/parallel.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

/// Measured threaded-kernel speedup on this machine: the same photon
/// budget through MonteCarloApp::run_parallel at increasing thread
/// counts. Returns false when any thread count diverged bitwise.
bool run_measured_section(std::uint64_t photons, std::size_t max_threads,
                          const std::string& out_dir) {
  using namespace phodis;
  std::cout << "\n=== Measured: threaded kernel on this host ("
            << exec::ThreadPool::default_thread_count()
            << " hardware threads) ===\n"
            << photons << " photons, grey-matter medium, shards of "
            << exec::kDefaultShardPhotons << " photons\n\n";

  core::SimulationSpec spec;
  spec.kernel.medium = mc::homogeneous_grey_matter();
  spec.photons = photons;
  spec.seed = 2006;
  const core::MonteCarloApp app(spec);

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);

  util::TextTable table(
      {"threads", "wall (s)", "photons/sec", "speedup", "bitwise"});
  util::CsvWriter csv(util::output_file(out_dir, "fig2_measured_threads.csv"));
  csv.header({"threads", "wall_s", "photons_per_s", "speedup"});

  std::vector<std::uint8_t> reference;
  double serial_seconds = 0.0;
  bool all_identical = true;
  for (std::size_t threads : thread_counts) {
    util::Stopwatch stopwatch;
    const mc::SimulationTally tally = app.run_parallel(threads);
    const double seconds = stopwatch.seconds();
    std::vector<std::uint8_t> bytes = tally.to_bytes();
    bool identical = true;
    if (reference.empty()) {
      reference = std::move(bytes);
      serial_seconds = seconds;
    } else {
      identical = bytes == reference;
      all_identical = all_identical && identical;
    }
    const double rate = static_cast<double>(photons) / seconds;
    const double speedup = serial_seconds / seconds;
    table.add_row({std::to_string(threads), util::format_double(seconds, 4),
                   util::format_double(rate, 6),
                   util::format_double(speedup, 4),
                   identical ? "yes" : "NO"});
    csv.row({static_cast<double>(threads), seconds, rate, speedup});
  }
  table.print(std::cout);
  std::cout << "(speedup is relative to 1 thread; expect ~min(threads, "
               "cores) on an idle machine)\nmeasured series written to "
            << csv.path() << "\n";
  return all_identical;
}

}  // namespace

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const std::string out_dir =
      args.get("out-dir", util::default_output_dir());
  const auto photons = args.get_count("photons", 1'000'000'000);
  const auto chunk = args.get_count("chunk", 1'000'000);
  const auto max_procs = args.get_count("max-procs", 60);
  if (max_procs == 0) {
    throw std::invalid_argument(
        "--max-procs takes a positive integer, not \"0\"");
  }
  const auto measure_photons = args.get_count("measure-photons", 60'000);
  // 0 means "one per core", like phodis_worker --threads.
  std::size_t measure_threads = args.get_count(
      "measure-threads",
      std::max<std::size_t>(4, exec::ThreadPool::default_thread_count()));
  if (measure_threads == 0) {
    measure_threads = exec::ThreadPool::default_thread_count();
  }

  std::cout << "=== Fig. 2: speedup vs number of homogeneous processors ===\n"
            << "workload: " << photons << " photons, chunks of " << chunk
            << ", P4-class nodes (200 Mflop/s), semi-idle (90-100% "
               "available)\n\n";

  cluster::ClusterConfig base;
  base.fleet = cluster::homogeneous_p4_fleet(1);
  base.total_photons = photons;
  base.chunk_photons = chunk;
  base.load.min_availability = 0.9;  // "semi-idle PCs"
  base.load.max_availability = 1.0;

  std::vector<std::size_t> counts;
  for (std::size_t k = 1; k <= max_procs; k += (k < 10 ? 1 : 5)) {
    counts.push_back(k);
  }
  if (counts.back() != max_procs) counts.push_back(max_procs);

  const auto series = cluster::speedup_series(base, max_procs, counts);

  util::TextTable table(
      {"processors", "makespan (s)", "speedup", "efficiency"});
  util::CsvWriter csv(util::output_file(out_dir, "fig2_speedup.csv"));
  csv.header({"processors", "makespan_s", "speedup", "efficiency"});
  for (const auto& point : series) {
    table.add_row({std::to_string(point.processors),
                   util::format_double(point.makespan_s, 6),
                   util::format_double(point.speedup, 4),
                   util::format_double(point.efficiency, 4)});
    csv.row({static_cast<double>(point.processors), point.makespan_s,
             point.speedup, point.efficiency});
  }
  table.print(std::cout);

  // ASCII speedup plot (x: processors, y: speedup), ideal line shown as '.'.
  std::cout << "\nspeedup plot ('*' measured, '.' ideal):\n";
  const int plot_rows = 20;
  const double y_max = static_cast<double>(max_procs);
  for (int row = plot_rows; row >= 0; --row) {
    const double y = y_max * row / plot_rows;
    std::string line(counts.size() * 2 + 2, ' ');
    for (std::size_t i = 0; i < series.size(); ++i) {
      const double ideal = static_cast<double>(series[i].processors);
      if (std::abs(ideal - y) <= y_max / (2.0 * plot_rows)) {
        line[2 + i * 2] = '.';
      }
      if (std::abs(series[i].speedup - y) <= y_max / (2.0 * plot_rows)) {
        line[2 + i * 2] = '*';
      }
    }
    std::cout << line << "\n";
  }

  const auto& last = series.back();
  std::cout << "\nefficiency at " << last.processors
            << " processors: " << last.efficiency * 100.0
            << " %  (paper: ~97 % at 60)\n"
            << "series written to " << csv.path() << "\n";
  const bool simulated_ok = last.efficiency > 0.90 && last.efficiency <= 1.0;

  bool measured_ok = true;
  if (measure_photons > 0) {
    measured_ok =
        run_measured_section(measure_photons, measure_threads, out_dir);
    if (!measured_ok) {
      std::cout << "MEASURED FAIL: a thread count changed the tally "
                   "bitwise\n";
    }
  }
  return (simulated_ok && measured_ok) ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
