// §3 feature — gated differential pathlengths: "In a real world experiment
// the pulse interferes with the paths taken by photons so the source and
// detector only operate between pulses. Thus the ability to gate the
// pathlengths allows for the simulation of this."
//
// Sweeps the gate window over the detected-pathlength distribution of a
// diffusive medium and reports detected fraction + mean pathlength per
// gate, plus the ungated pathlength histogram.
//
// Flags: --photons N (default 60000), --separation mm (10), --seed S
#include <cmath>
#include <iostream>
#include <limits>

#include "core/app.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 60'000);
  const double separation = args.get_double("separation", 10.0);
  const auto seed = args.get_count("seed", 2006);

  // Diffusive reference medium (detections plentiful at laptop budgets).
  core::SimulationSpec spec;
  mc::OpticalProperties p;
  p.mua = 0.01;
  p.mus = 10.0;
  p.g = 0.9;
  p.n = 1.4;
  spec.kernel.medium = mc::homogeneous_semi_infinite(p);
  mc::DetectorSpec detector;
  detector.separation_mm = separation;
  detector.radius_mm = 2.0;
  spec.kernel.detector = detector;
  spec.photons = photons;
  spec.seed = seed;

  std::cout << "=== Gated differential pathlengths ===\n"
            << photons << " photons, separation " << separation
            << " mm, tissue mua=0.01 mus'=1.0 n=1.4\n\n";

  // Ungated baseline and its pathlength distribution.
  core::MonteCarloApp open_app(spec);
  const mc::SimulationTally open_tally = open_app.run_serial();
  const auto& hist = open_tally.pathlength_histogram();
  std::cout << "ungated: " << open_tally.photons_detected()
            << " detections, mean optical pathlength "
            << open_tally.mean_detected_pathlength() << " mm (DPF "
            << open_tally.mean_detected_pathlength() / separation << ")\n"
            << "pathlength quartiles (mm): "
            << hist.quantile(0.25) << " / " << hist.quantile(0.5) << " / "
            << hist.quantile(0.75) << "\n\n";

  // Gate sweep: windows in optical pathlength.
  struct Gate {
    double lo;
    double hi;
  };
  const double q50 = hist.quantile(0.5);
  const Gate gates[] = {
      {0.0, 0.5 * q50}, {0.0, q50},    {0.0, 2.0 * q50},
      {q50, 2.0 * q50}, {2.0 * q50, std::numeric_limits<double>::infinity()},
  };

  util::TextTable table({"gate (mm optical)", "detected", "fraction of open",
                         "mean pathlength (mm)"});
  util::CsvWriter csv(util::output_file(args, "gating_sweep.csv"));
  csv.header({"gate_lo_mm", "gate_hi_mm", "detections", "mean_path_mm"});
  for (const Gate& gate : gates) {
    core::SimulationSpec gated = spec;
    gated.kernel.detector->gate.min_mm = gate.lo;
    gated.kernel.detector->gate.max_mm = gate.hi;
    core::MonteCarloApp app(gated);
    const mc::SimulationTally tally = app.run_serial();
    const std::string label =
        util::format_double(gate.lo, 4) + " - " +
        (std::isinf(gate.hi) ? "inf" : util::format_double(gate.hi, 4));
    table.add_row(
        {label, std::to_string(tally.photons_detected()),
         util::format_double(
             open_tally.photons_detected()
                 ? static_cast<double>(tally.photons_detected()) /
                       static_cast<double>(open_tally.photons_detected())
                 : 0.0,
             4),
         util::format_double(tally.mean_detected_pathlength(), 5)});
    csv.row({gate.lo, std::isinf(gate.hi) ? -1.0 : gate.hi,
             static_cast<double>(tally.photons_detected()),
             tally.mean_detected_pathlength()});
  }
  table.print(std::cout);

  std::cout << "\n(gating selects a pathlength band: early gates see the "
               "short, shallow paths; late gates the deep wanderers)\n"
            << "sweep written to " << csv.path() << "\n";
  return open_tally.photons_detected() > 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
