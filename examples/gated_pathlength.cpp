// Gated differential pathlengths — the paper's pulsed source/detector
// feature. Shows the detected-pathlength distribution and what different
// gate windows select, including the banana-depth consequence: late gates
// (long paths) correspond to deeper interrogation.
//
// Run: ./gated_pathlength [--photons 200000] [--separation 10]
#include <cmath>
#include <iostream>
#include <limits>

#include "analysis/banana.hpp"
#include "core/app.hpp"
#include "core/experiments.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace phodis;
  const util::CliArgs args(argc, argv);
  const auto photons =
      static_cast<std::uint64_t>(args.get_int("photons", 200'000));
  const double separation = args.get_double("separation", 10.0);

  // Diffusive medium with plentiful detections.
  const mc::OpticalProperties props =
      mc::OpticalProperties::from_reduced(0.01, 1.0, 0.9, 1.0);

  auto make_spec = [&](double gate_lo, double gate_hi) {
    core::SimulationSpec spec = core::fig3_banana_spec(
        photons, 40, separation, 21);
    spec.kernel.medium = mc::homogeneous_semi_infinite(props);
    spec.kernel.detector->gate.min_mm = gate_lo;
    spec.kernel.detector->gate.max_mm = gate_hi;
    return spec;
  };

  std::cout << "Gated pathlength demo: " << photons
            << " photons, separation " << separation << " mm\n\n";

  // Open-gate run for the distribution.
  core::MonteCarloApp open_app(
      make_spec(0.0, std::numeric_limits<double>::infinity()));
  const mc::SimulationTally open_tally = open_app.run_serial();
  const auto& hist = open_tally.pathlength_histogram();
  std::cout << "detected (ungated): " << open_tally.photons_detected()
            << ", mean path " << open_tally.mean_detected_pathlength()
            << " mm\n\npathlength distribution (one '#' ~ 2% of peak):\n";
  // Coarse ASCII histogram over the central 20 bins around the median.
  const double median = hist.quantile(0.5);
  double peak = 0.0;
  for (std::size_t i = 0; i < hist.bin_count(); ++i) {
    peak = std::max(peak, hist.count(i));
  }
  for (std::size_t i = 0; i < hist.bin_count(); i += 10) {
    double group = 0.0;
    for (std::size_t j = i; j < std::min(i + 10, hist.bin_count()); ++j) {
      group += hist.count(j);
    }
    if (group <= 0.0) continue;
    const int bars =
        static_cast<int>(50.0 * group / (peak * 10.0) + 0.5);
    std::cout << "  " << util::format_double(hist.bin_lo(i), 4) << "-"
              << util::format_double(hist.bin_hi(std::min(
                                         i + 9, hist.bin_count() - 1)),
                                     4)
              << " mm " << std::string(static_cast<std::size_t>(bars), '#')
              << "\n";
  }

  // Early / middle / late gates and the depth each one interrogates.
  std::cout << "\ngate windows (optical pathlength) and interrogated "
               "depth:\n\n";
  util::TextTable table({"gate (mm)", "detected", "mean path (mm)",
                         "banana mid depth (mm)"});
  struct Window {
    double lo, hi;
    const char* label;
  };
  const Window windows[] = {
      {0.0, median, "early"},
      {median, 2.0 * median, "middle"},
      {2.0 * median, std::numeric_limits<double>::infinity(), "late"},
  };
  for (const Window& window : windows) {
    core::MonteCarloApp app(make_spec(window.lo, window.hi));
    const mc::SimulationTally tally = app.run_serial();
    double depth = 0.0;
    if (tally.photons_detected() > 0) {
      depth = analysis::banana_metrics(*tally.path_grid(), separation)
                  .midpoint_mean_depth_mm;
    }
    table.add_row(
        {std::string(window.label) + " [" +
             util::format_double(window.lo, 4) + ", " +
             (std::isinf(window.hi) ? std::string("inf")
                                    : util::format_double(window.hi, 4)) +
             ")",
         std::to_string(tally.photons_detected()),
         util::format_double(tally.mean_detected_pathlength(), 5),
         util::format_double(depth, 4)});
  }
  table.print(std::cout);
  std::cout << "\n(late gates select long paths, which dive deeper: time "
               "gating is depth selection)\n";
  return 0;
}
