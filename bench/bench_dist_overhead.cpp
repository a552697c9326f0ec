// Platform overhead bench: runs the real in-process distributed runtime
// (DataManager + worker slots over 127.0.0.1 sockets) and measures
// photons/s, protocol traffic, and the cost of fault injection, versus a
// plain serial run of the same workload. The 1-worker fleet isolates the
// platform's overhead against the serial run — the quantity that Fig. 2's
// efficiency is about; the 4-worker fleets add the thread speedup, which
// a host with at least 4 cores turns into wall time.
//
// Flags: --photons N (default 100000), --chunk N (10000)
#include <iostream>

#include "core/app.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 100'000);
  const auto chunk = args.get_count("chunk", 10'000);

  core::SimulationSpec spec;
  mc::OpticalProperties p;
  p.mua = 0.05;
  p.mus = 5.0;
  p.g = 0.8;
  p.n = 1.4;
  spec.kernel.medium = mc::homogeneous_semi_infinite(p);
  spec.photons = photons;
  spec.seed = 2006;
  core::MonteCarloApp app(spec);

  std::cout << "=== Distributed-platform overhead (real threads, local "
               "sockets) ===\n"
            << photons << " photons in chunks of " << chunk << "\n\n";

  util::Stopwatch stopwatch;
  const mc::SimulationTally serial = app.run_serial(chunk);
  const double serial_s = stopwatch.seconds();

  util::TextTable table({"configuration", "wall (s)", "photons/s",
                         "frames", "dropped", "bytes", "re-issues"});
  table.add_row({"serial baseline", util::format_double(serial_s, 4),
                 util::format_double(photons / serial_s, 6), "-", "-", "-",
                 "-"});

  for (const auto& [workers, drop, death, label] :
       {std::tuple{std::size_t{1}, 0.0, 0.0, "1 worker"},
        std::tuple{std::size_t{4}, 0.0, 0.0, "4 workers"},
        std::tuple{std::size_t{4}, 0.05, 0.0, "4 workers, 5% frame loss"},
        std::tuple{std::size_t{4}, 0.05, 0.1,
                   "4 workers, 5% loss + 10% deaths"}}) {
    core::ExecutionOptions options;
    options.workers = workers;
    options.chunk_photons = chunk;
    options.transport_faults.drop_probability = drop;
    options.worker_death_probability = death;
    options.lease_duration_s = 2.0;
    const core::RunSummary summary = app.run_distributed(options);
    // Cross-check: the distributed tally bytes must equal serial's.
    if (summary.tally.to_bytes() != serial.to_bytes()) {
      util::log_error() << "bench_dist_overhead: determinism violation ("
                        << label << " tally bytes differ from serial)";
      return 1;
    }
    table.add_row({label, util::format_double(summary.wall_seconds, 4),
                   util::format_double(photons / summary.wall_seconds, 6),
                   std::to_string(summary.frames_sent),
                   std::to_string(summary.frames_dropped),
                   std::to_string(summary.bytes_sent),
                   std::to_string(summary.manager_stats.lease_expirations)});
  }
  table.print(std::cout);
  std::cout << "\n(every distributed run reproduced the serial tally "
               "bitwise, including under fault injection)\n";
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
