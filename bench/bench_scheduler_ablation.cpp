// Ablation 1 — task scheduling on the heterogeneous Table 2 fleet.
//
// The paper defers heterogeneous-efficiency discussion to its ref. [4]
// (Page & Naughton 2005, GA-based scheduling). This bench shows the
// trade-off that motivates rate-aware scheduling on the simulated
// 150-client fleet:
//   * dynamic self-scheduling needs small chunks to avoid stragglers on
//     the 15 Mflop/s P2s — but small chunks saturate the serial server;
//   * static round-robin is rate-blind and starves on the slow machines;
//   * static greedy LPT and the GA schedule (reproduction of ref. [4])
//     give slow nodes proportionally less work and avoid both failure
//     modes.
//
// Flags: --photons N (default 2e8), --seed S
#include <iostream>
#include <memory>

#include "cluster/fleet.hpp"
#include "cluster/simulator.hpp"
#include "dist/scheduler.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 200'000'000);
  const auto seed = args.get_count("seed", 2006);

  cluster::ClusterConfig base;
  base.fleet = cluster::table2_fleet();
  base.total_photons = photons;
  base.seed = seed;
  base.load.min_availability = 0.7;  // non-dedicated clients
  base.load.max_availability = 1.0;

  // Ideal lower bound: all aggregate Mflop/s busy all the time.
  const double ideal_s =
      static_cast<double>(photons) * base.cost.flops_per_photon /
      (cluster::aggregate_mflops(base.fleet) * 1.0e6);

  std::cout << "=== Scheduler ablation on the Table 2 fleet (150 "
               "heterogeneous, non-dedicated clients) ===\n"
            << photons << " photons; ideal makespan (dedicated, zero "
               "overhead): "
            << ideal_s << " s\n\n";

  struct Row {
    std::string policy;
    std::string chunk;
    double makespan;
    double server_util;
  };
  std::vector<Row> rows;

  for (const std::uint64_t chunk :
       {std::uint64_t{1'000'000}, std::uint64_t{250'000},
        std::uint64_t{50'000}}) {
    cluster::ClusterConfig config = base;
    config.chunk_photons = chunk;
    const auto report = cluster::ClusterSimulator(config).run();
    rows.push_back({"dynamic self-scheduling", std::to_string(chunk),
                    report.makespan_s, report.server_utilisation()});
  }

  dist::RoundRobinScheduler round_robin;
  dist::GreedyScheduler greedy;
  dist::GaScheduler::Params ga_params;
  ga_params.seed = seed;
  ga_params.generations = 120;
  dist::GaScheduler genetic(ga_params);
  for (dist::StaticScheduler* scheduler :
       std::initializer_list<dist::StaticScheduler*>{&round_robin, &greedy,
                                                     &genetic}) {
    cluster::ClusterConfig config = base;
    config.mode = cluster::ScheduleMode::kStatic;
    config.chunk_photons = 250'000;
    const auto report =
        cluster::ClusterSimulator(config).run_static(*scheduler);
    rows.push_back({"static " + scheduler->name(), "250000",
                    report.makespan_s, report.server_utilisation()});
  }

  util::TextTable table({"policy", "chunk (photons)", "makespan (s)",
                         "vs ideal", "efficiency", "server util"});
  util::CsvWriter csv(util::output_file(args, "scheduler_ablation.csv"));
  csv.header({"policy", "chunk", "makespan_s", "efficiency"});
  for (const Row& row : rows) {
    table.add_row({row.policy, row.chunk,
                   util::format_double(row.makespan, 6),
                   util::format_double(row.makespan / ideal_s, 4),
                   util::format_double(ideal_s / row.makespan, 4),
                   util::format_double(row.server_util, 4)});
    csv.row({row.policy, row.chunk, util::format_double(row.makespan),
             util::format_double(ideal_s / row.makespan)});
  }
  table.print(std::cout);

  // GA optimisation behaviour from a *random* initial population (the
  // seeded GA above simply keeps the greedy schedule through elitism).
  // Ablation 2: the load-aware move mutation vs the pure random-mutation
  // GA of ref. [4]; the directed repair must strictly win on this fleet.
  dist::GaScheduler::Params raw_params;
  raw_params.seed = seed;
  raw_params.generations = 150;
  raw_params.seed_with_greedy = false;
  dist::GaScheduler raw_ga(raw_params);
  dist::GaScheduler::Params random_only_params = raw_params;
  random_only_params.move_mutation_rate = 0.0;
  dist::GaScheduler random_only_ga(random_only_params);
  {
    const auto chunks = dist::chunk_plan(photons, 250'000);
    std::vector<double> sizes(chunks.begin(), chunks.end());
    std::vector<double> rates;
    for (const auto& node : base.fleet) rates.push_back(node.mflops);
    const double with_move = raw_ga.schedule(sizes, rates).makespan;
    const double random_only =
        random_only_ga.schedule(sizes, rates).makespan;
    // Ablation 3: best-move descent on the elites (memetic GA) — must
    // close the remaining gap to greedy LPT from a random population.
    dist::GaScheduler::Params descent_params = raw_params;
    descent_params.elite_descent_moves = 16;
    const double with_descent =
        dist::GaScheduler(descent_params).schedule(sizes, rates).makespan;
    const double to_seconds = base.cost.flops_per_photon / 1.0e6;
    const auto& curve = raw_ga.convergence();
    std::cout << "\nGA convergence from a random population (model "
                 "makespan, s; load-aware move mutation on):\n";
    for (std::size_t i = 0; i < curve.size();
         i += std::max<std::size_t>(1, curve.size() / 8)) {
      std::cout << "  gen " << i << ": " << curve[i] * to_seconds << "\n";
    }
    const double greedy_makespan = greedy.schedule(sizes, rates).makespan;
    std::cout << "  final: " << with_move * to_seconds
              << "  (random-mutation-only GA: " << random_only * to_seconds
              << ", + elite best-move descent: " << with_descent * to_seconds
              << ", greedy: " << greedy_makespan * to_seconds << ")\n";
    if (!(with_move < random_only)) {
      std::cout << "ABLATION FAIL: load-aware move mutation did not beat "
                   "the random-mutation GA\n";
      return 1;
    }
    if (with_descent > greedy_makespan * (1.0 + 1e-9)) {
      std::cout << "ABLATION FAIL: elite descent left a gap to greedy LPT\n";
      return 1;
    }
  }

  std::cout << "\n(dynamic needs small chunks to tame the P2 stragglers, "
               "but small chunks raise the serial server load; rate-aware "
               "static schedules — greedy / GA of ref. [4] — avoid both)\n"
            << "written to " << csv.path() << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
