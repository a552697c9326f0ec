// Extension bench — spatially-resolved diffuse reflectance R(rho).
//
// The quantity behind the paper's source/detector-spacing discussion:
// how much light comes back out at each distance from the source. The MC
// kernel (cylindrical tally) is compared bin-by-bin against the Farrell
// diffusion dipole — an independent analytic model — in its domain of
// validity. This doubles as the deepest physics validation in the suite.
//
// Flags: --photons N (default 300000), --seed S
#include <cmath>
#include <iostream>

#include "analysis/diffusion.hpp"
#include "mc/kernel.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 300'000);
  const auto seed = args.get_count("seed", 2006);

  mc::OpticalProperties p;
  p.mua = 0.01;
  p.mus = 10.0;
  p.g = 0.9;
  p.n = 1.0;

  std::cout << "=== Spatially-resolved diffuse reflectance R(rho): Monte "
               "Carlo vs Farrell diffusion dipole ===\n"
            << photons << " photons; mua=0.01/mm mus'=1.0/mm g=0.9 "
               "matched boundary\n\n";

  mc::KernelConfig config;
  config.medium = mc::homogeneous_semi_infinite(p, 1.0);
  config.tally.enable_radial = true;
  config.tally.radial_spec.r_max_mm = 20.0;
  config.tally.radial_spec.nr = 40;
  config.tally.radial_spec.z_max_mm = 40.0;
  config.tally.radial_spec.nz = 40;
  const mc::Kernel kernel(config);
  mc::SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(seed);
  util::Stopwatch stopwatch;
  kernel.run(photons, rng, tally);
  std::cout << "simulated in " << stopwatch.seconds() << " s; total Rd = "
            << tally.diffuse_reflectance() << "\n\n";

  const mc::RadialTally& radial = *tally.radial();
  util::TextTable table({"rho (mm)", "R_mc (1/mm^2)", "R_diffusion",
                         "MC/theory"});
  util::CsvWriter csv(util::output_file(args, "radial_reflectance.csv"));
  csv.header({"rho_mm", "r_mc_per_mm2", "r_diffusion_per_mm2", "ratio"});
  double worst_ratio = 1.0;
  for (std::size_t ir = 2; ir < radial.spec().nr; ir += 2) {
    const double rho = radial.r_center(ir);
    const double mc_value = radial.reflectance_per_area(ir, photons);
    const double theory = analysis::semi_infinite_reflectance(p, rho, 1.0);
    const double ratio = theory > 0.0 ? mc_value / theory : 0.0;
    if (rho > 3.0 && mc_value > 0.0) {
      worst_ratio = std::max(worst_ratio,
                             std::max(ratio, ratio > 0 ? 1.0 / ratio : 1e9));
    }
    table.add_row({util::format_double(rho, 4),
                   util::format_double(mc_value, 4),
                   util::format_double(theory, 4),
                   util::format_double(ratio, 4)});
    csv.row({rho, mc_value, theory, ratio});
  }
  table.print(std::cout);

  std::cout << "\nworst MC/theory disagreement beyond 3 mm: "
            << util::format_double(worst_ratio, 4)
            << "x (diffusion theory itself is ~10-20% off near the "
               "source; agreement within ~1.5x in the diffusive regime "
               "validates the kernel)\n"
            << "series written to " << csv.path() << "\n";
  return worst_ratio < 2.0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
