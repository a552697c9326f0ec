// The CSF effect — the paper's §2: "the cerebrospinal fluid, a layer of
// low scattering properties 'sandwiched' between highly scattering tissue
// ... has a significant effect on light propagation" (after Okada & Delpy
// 2003). This example simulates the Table 1 head model twice — once as
// printed, once with the CSF layer's optics replaced by grey-matter-like
// scattering — and compares where the light goes.
//
// Run: ./csf_effect [--photons 60000]
#include <cmath>
#include <iostream>

#include "core/app.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace phodis;

/// Table 1 head model, optionally with the CSF layer's optical properties
/// overridden by a highly scattering surrogate (same thickness, so the
/// geometry is identical and only the "clear layer" effect differs).
mc::LayeredMedium head_model(bool clear_csf) {
  const auto& rows = mc::table1_rows();
  mc::LayeredMediumBuilder builder;
  builder.ambient_above(1.0).ambient_below(1.0);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    mc::OpticalProperties props = mc::OpticalProperties::from_reduced(
        rows[i].mua_per_mm, rows[i].mus_prime_per_mm, 0.9, 1.4);
    if (rows[i].tissue == "CSF" && !clear_csf) {
      // Replace the near-transparent CSF with grey-matter-like scattering.
      props = mc::OpticalProperties::from_reduced(rows[i].mua_per_mm, 2.2,
                                                  0.9, 1.4);
    }
    builder.add_layer(rows[i].tissue, props, rows[i].thickness_used_mm);
  }
  builder.add_semi_infinite_layer(
      rows.back().tissue,
      mc::OpticalProperties::from_reduced(rows.back().mua_per_mm,
                                          rows.back().mus_prime_per_mm, 0.9,
                                          1.4));
  return builder.build();
}

struct Outcome {
  double grey_abs = 0.0;
  double white_abs = 0.0;
  double reach_grey = 0.0;   // photons with max depth >= 12 mm
  double reach_white = 0.0;  // photons with max depth >= 16 mm
  double detected = 0.0;
};

Outcome simulate(bool clear_csf, std::uint64_t photons) {
  core::SimulationSpec spec;
  spec.kernel.medium = head_model(clear_csf);
  mc::DetectorSpec detector;
  detector.separation_mm = 30.0;
  detector.radius_mm = 2.5;
  spec.kernel.detector = detector;
  spec.kernel.tally.depth_max_mm = 40.0;
  spec.photons = photons;
  spec.seed = 33;
  core::MonteCarloApp app(spec);
  const mc::SimulationTally tally = app.run_serial();

  Outcome outcome;
  const double launched = static_cast<double>(tally.photons_launched());
  outcome.grey_abs = tally.absorbed_weight(3) / launched;
  outcome.white_abs = tally.absorbed_weight(4) / launched;
  const auto& depth = tally.depth_histogram();
  double reach_grey = 0.0;
  double reach_white = 0.0;
  for (std::size_t i = 0; i < depth.bin_count(); ++i) {
    if (depth.bin_center(i) >= 12.0) reach_grey += depth.count(i);
    if (depth.bin_center(i) >= 16.0) reach_white += depth.count(i);
  }
  outcome.reach_grey = (reach_grey + depth.overflow()) / depth.total();
  outcome.reach_white = (reach_white + depth.overflow()) / depth.total();
  outcome.detected = static_cast<double>(tally.photons_detected());
  return outcome;
}

}  // namespace

int run(const util::CliArgs& args) {
  const auto photons = args.get_count("photons", 60'000);

  std::cout << "CSF effect study (paper Sect. 2 / Okada & Delpy): "
            << photons << " photons per model\n\n";

  const Outcome with_csf = simulate(true, photons);
  const Outcome without_csf = simulate(false, photons);

  util::TextTable table({"quantity", "clear CSF (Table 1)",
                         "scattering 'CSF'"});
  auto row = [&](const char* label, double a, double b) {
    table.add_row({label, util::format_double(a, 5),
                   util::format_double(b, 5)});
  };
  row("grey-matter absorption", with_csf.grey_abs, without_csf.grey_abs);
  row("white-matter absorption", with_csf.white_abs, without_csf.white_abs);
  row("photons reaching grey (z>=12mm)", with_csf.reach_grey,
      without_csf.reach_grey);
  row("photons reaching white (z>=16mm)", with_csf.reach_white,
      without_csf.reach_white);
  row("detected at 30mm", with_csf.detected, without_csf.detected);
  table.print(std::cout);

  std::cout << "\n(the low-scattering CSF acts as a light guide under the "
               "skull: photons that reach it spread laterally and shuttle "
               "into the grey matter instead of being scattered straight "
               "back — compare the reach and absorption columns)\n";
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
