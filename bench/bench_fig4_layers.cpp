// Fig. 4 — "Simulated paths taken by photons with layers of brain tissue
// as defined in Table 1": light distribution through scalp, skull, CSF,
// grey and white matter.
//
// The paper's observation: "Most of the photons are reflected before they
// enter the CSF, however some do penetrate all the way into the white
// matter tissue". This bench prints the per-layer energy budget, the
// penetration-depth profile, and an ASCII fluence map.
//
// Flags: --photons N (default 60000), --granularity G (50),
//        --separation mm (30), --seed S (2006)
#include <cmath>
#include <iostream>

#include "analysis/render.hpp"
#include "core/app.hpp"
#include "core/experiments.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 60'000);
  const auto granularity = args.get_count("granularity", 50);
  const double separation = args.get_double("separation", 30.0);
  const auto seed = args.get_count("seed", 2006);

  std::cout << "=== Fig. 4: photon paths through the layered adult head "
               "model (Table 1) ===\n"
            << photons << " photons, optode separation " << separation
            << " mm\n\n";

  core::SimulationSpec spec =
      core::fig4_head_spec(photons, granularity, separation, seed);
  core::MonteCarloApp app(spec);
  util::Stopwatch stopwatch;
  const mc::SimulationTally tally = app.run_serial();
  std::cout << "simulated in " << stopwatch.seconds() << " s\n\n";

  // Global energy budget.
  util::TextTable budget({"destination", "fraction of launched weight"});
  budget.add_row({"specular reflection",
                  util::format_double(tally.specular_reflectance(), 5)});
  budget.add_row({"diffuse reflectance (escaped top)",
                  util::format_double(tally.diffuse_reflectance(), 5)});
  budget.add_row(
      {"absorbed in tissue", util::format_double(tally.absorbed_fraction(), 5)});
  budget.add_row({"transmitted/lost",
                  util::format_double(
                      tally.transmittance() + tally.lost_fraction(), 5)});
  budget.print(std::cout);

  // Per-layer absorption: where does the light go?
  std::cout << "\nper-layer absorption:\n\n";
  const mc::LayeredMedium& head = spec.kernel.medium;
  const double launched = static_cast<double>(tally.photons_launched());
  util::TextTable layers({"layer", "absorbed weight", "fraction of launched",
                          "fraction of absorbed"});
  util::CsvWriter csv(util::output_file(args, "fig4_layer_absorption.csv"));
  csv.header({"layer", "absorbed_fraction"});
  double absorbed_total = 0.0;
  for (std::size_t i = 0; i < head.layer_count(); ++i) {
    absorbed_total += tally.absorbed_weight(i);
  }
  for (std::size_t i = 0; i < head.layer_count(); ++i) {
    const double w = tally.absorbed_weight(i);
    layers.add_row({head.layer(i).name, util::format_double(w, 5),
                    util::format_double(w / launched, 5),
                    util::format_double(w / absorbed_total, 5)});
    csv.row({static_cast<double>(i), w / launched});
  }
  layers.print(std::cout);

  // Penetration-depth profile: how deep do photons get before dying or
  // escaping? Key percentiles against the layer interfaces.
  const auto& depth = tally.depth_histogram();
  std::cout << "\nmaximum-depth percentiles (layer interfaces: scalp|skull "
               "3, skull|CSF 10, CSF|grey 12, grey|white 16 mm):\n\n";
  util::TextTable depths({"percentile", "max depth (mm)"});
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    depths.add_row({util::format_double(q * 100.0, 4),
                    util::format_double(depth.quantile(q), 5)});
  }
  depths.print(std::cout);

  // Fraction of photons whose paths reached each interface.
  double reach_csf = 0.0;
  double reach_white = 0.0;
  for (std::size_t i = 0; i < depth.bin_count(); ++i) {
    if (depth.bin_center(i) >= 10.0) reach_csf += depth.count(i);
    if (depth.bin_center(i) >= 16.0) reach_white += depth.count(i);
  }
  reach_csf = (reach_csf + depth.overflow()) / depth.total();
  reach_white = (reach_white + depth.overflow()) / depth.total();
  std::cout << "\nphotons reaching the CSF (z >= 10 mm): "
            << reach_csf * 100.0 << " %\n"
            << "photons reaching white matter (z >= 16 mm): "
            << reach_white * 100.0
            << " %   (paper: \"most ... reflected before they enter the "
               "CSF, however some do penetrate\")\n";

  // ASCII fluence map (all-photon absorption density).
  analysis::RenderOptions options;
  options.max_cols = 80;
  options.max_rows = 30;
  std::cout << "\nfluence map, y = 0 slice (rows ~1 mm of depth):\n"
            << analysis::render_ascii_slice(*tally.fluence_grid(), options);
  const std::string slice_path =
      util::output_file(args, "fig4_fluence_slice.csv");
  analysis::write_csv_slice(*tally.fluence_grid(), slice_path);
  std::cout << "\nfluence slice written to " << slice_path << "\n";

  const bool ok = tally.diffuse_reflectance() + tally.specular_reflectance() >
                      0.3 &&          // most photons come back out
                  reach_white > 0.0;  // but some reach white matter
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
