// Ablation 2 — "refraction and internal reflection (classical physics or
// probabilistic methods)": the paper's kernel supports both; this bench
// compares the two boundary models on the same media for agreement of the
// physical estimates, variance, and speed.
//
// Flags: --photons N (default 80000), --seed S
#include <cmath>
#include <iostream>

#include "mc/kernel.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

struct Medium {
  const char* label;
  phodis::mc::OpticalProperties props;
  double n_ambient;
};

struct Estimate {
  double rd_mean = 0.0;
  double rd_stderr = 0.0;
  double absorbed = 0.0;
  double seconds = 0.0;
};

Estimate run_model(const Medium& medium, phodis::mc::BoundaryModel model,
                   std::uint64_t photons, std::uint64_t seed) {
  using namespace phodis;
  constexpr int kReplicas = 8;
  std::vector<double> rd(kReplicas);
  Estimate estimate;
  util::Stopwatch stopwatch;
  mc::KernelConfig config;
  config.medium = mc::homogeneous_semi_infinite(medium.props,
                                                medium.n_ambient);
  config.boundary_model = model;
  const mc::Kernel kernel(config);
  for (int r = 0; r < kReplicas; ++r) {
    mc::SimulationTally tally = kernel.make_tally();
    util::Xoshiro256pp rng(seed + static_cast<std::uint64_t>(r));
    kernel.run(photons / kReplicas, rng, tally);
    rd[r] = tally.diffuse_reflectance();
    estimate.absorbed += tally.absorbed_fraction() / kReplicas;
  }
  estimate.seconds = stopwatch.seconds();
  for (double v : rd) estimate.rd_mean += v / kReplicas;
  double var = 0.0;
  for (double v : rd) var += (v - estimate.rd_mean) * (v - estimate.rd_mean);
  var /= (kReplicas - 1);
  estimate.rd_stderr = std::sqrt(var / kReplicas);
  return estimate;
}

}  // namespace

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 80'000);
  const auto seed = args.get_count("seed", 2006);

  std::cout << "=== Boundary-model ablation: probabilistic vs classical "
               "(deterministic weight splitting at exterior interfaces) "
               "===\n"
            << photons << " photons per (medium, model), 8 replicas for "
               "standard errors\n\n";

  Medium media[] = {
      {"matched a=0.9 iso", {}, 1.0},
      {"tissue n=1.4 g=0.9", {}, 1.0},
  };
  media[0].props.mua = 1.0;
  media[0].props.mus = 9.0;
  media[0].props.g = 0.0;
  media[0].props.n = 1.0;
  media[1].props.mua = 0.02;
  media[1].props.mus = 10.0;
  media[1].props.g = 0.9;
  media[1].props.n = 1.4;

  util::TextTable table({"medium", "model", "Rd", "stderr", "absorbed",
                         "time (s)"});
  util::CsvWriter csv(util::output_file(args, "boundary_modes.csv"));
  csv.header({"medium", "model", "rd", "stderr", "seconds"});
  for (const Medium& medium : media) {
    for (const mc::BoundaryModel model :
         {mc::BoundaryModel::kProbabilistic, mc::BoundaryModel::kClassical}) {
      const Estimate e = run_model(medium, model, photons, seed);
      table.add_row({medium.label, mc::to_string(model),
                     util::format_double(e.rd_mean, 5),
                     util::format_double(e.rd_stderr, 3),
                     util::format_double(e.absorbed, 5),
                     util::format_double(e.seconds, 4)});
      csv.row({medium.label, mc::to_string(model),
               util::format_double(e.rd_mean),
               util::format_double(e.rd_stderr),
               util::format_double(e.seconds)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(the two models are unbiased estimators of the same "
               "reflectance; classical splitting trades per-photon cost "
               "for variance at mismatched boundaries)\n"
            << "written to " << csv.path() << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
