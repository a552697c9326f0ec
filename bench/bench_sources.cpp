// §4 claims — source-footprint ablation:
//  A. "the source illumination footprint has an effect on the distribution
//      of photons in the head"  -> compare delta / Gaussian / uniform
//      sources on the Table 1 head model;
//  B. "lasers do produce a small beam in a highly scattering medium"
//      -> RMS beam radius vs depth for a delta source in white matter.
//
// Flags: --photons N (default 40000), --seed S (2006)
#include <iostream>

#include "analysis/banana.hpp"
#include "core/app.hpp"
#include "core/experiments.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

struct SourceCase {
  const char* label;
  phodis::mc::SourceType type;
  double radius_mm;
};

}  // namespace

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 40'000);
  const auto seed = args.get_count("seed", 2006);

  std::cout << "=== Source-footprint study (paper Sect. 4) ===\n\n";

  // --- Claim A: footprint changes the distribution in the head -------------
  const SourceCase cases[] = {
      {"delta (laser)", mc::SourceType::kDelta, 0.0},
      {"gaussian r=2mm", mc::SourceType::kGaussian, 2.0},
      {"gaussian r=5mm", mc::SourceType::kGaussian, 5.0},
      {"uniform r=5mm", mc::SourceType::kUniform, 5.0},
      {"uniform r=10mm", mc::SourceType::kUniform, 10.0},
  };

  util::TextTable table({"source", "shallow RMS radius (mm)",
                         "scalp absorption", "white-matter absorption",
                         "median max depth (mm)"});
  util::CsvWriter csv(util::output_file(args, "sources_footprint.csv"));
  csv.header({"source", "shallow_rms_mm", "scalp_abs", "white_abs",
              "median_depth_mm"});

  for (const SourceCase& source_case : cases) {
    core::SimulationSpec spec = core::source_footprint_spec(
        source_case.type, source_case.radius_mm, photons, seed);
    core::MonteCarloApp app(spec);
    const mc::SimulationTally tally = app.run_serial();
    const auto spread =
        analysis::beam_spread_by_depth(*tally.fluence_grid());
    double shallow_rms = 0.0;
    for (const auto& point : spread) {
      if (point.total_weight > 1.0) {
        shallow_rms = point.rms_radius_mm;
        break;
      }
    }
    const double launched = static_cast<double>(tally.photons_launched());
    const double scalp = tally.absorbed_weight(0) / launched;
    const double white = tally.absorbed_weight(4) / launched;
    const double median_depth = tally.depth_histogram().quantile(0.5);
    table.add_row({source_case.label, util::format_double(shallow_rms, 4),
                   util::format_double(scalp, 5),
                   util::format_double(white, 5),
                   util::format_double(median_depth, 4)});
    csv.row({std::string(source_case.label),
             util::format_double(shallow_rms),
             util::format_double(scalp), util::format_double(white),
             util::format_double(median_depth)});
  }
  table.print(std::cout);
  std::cout << "\n(footprint widens the shallow illumination and shifts "
               "where superficial absorption happens -> claim A)\n\n";

  // --- Claim B: a laser stays narrow in white matter -------------------------
  std::cout << "=== Beam spread of a delta (laser) source in homogeneous "
               "white matter ===\n\n";
  core::SimulationSpec wm_spec;
  wm_spec.kernel.medium = mc::homogeneous_white_matter();
  wm_spec.kernel.source.type = mc::SourceType::kDelta;
  wm_spec.kernel.tally.enable_fluence_grid = true;
  mc::GridSpec grid;
  grid.x_min = grid.y_min = -10.0;
  grid.x_max = grid.y_max = 10.0;
  grid.z_min = 0.0;
  grid.z_max = 10.0;
  grid.nx = grid.ny = 80;
  grid.nz = 20;
  wm_spec.kernel.tally.fluence_spec = grid;
  wm_spec.photons = photons;
  wm_spec.seed = seed + 1;
  core::MonteCarloApp wm_app(wm_spec);
  const mc::SimulationTally wm_tally = wm_app.run_serial();

  util::TextTable beam({"depth (mm)", "RMS beam radius (mm)"});
  util::CsvWriter beam_csv(util::output_file(args, "sources_beam_spread.csv"));
  beam_csv.header({"z_mm", "rms_radius_mm"});
  const auto beam_series =
      analysis::beam_spread_by_depth(*wm_tally.fluence_grid());
  for (const auto& point : beam_series) {
    if (point.total_weight <= 0.0) continue;
    beam.add_row({util::format_double(point.z_mm, 4),
                  util::format_double(point.rms_radius_mm, 4)});
    beam_csv.row({point.z_mm, point.rms_radius_mm});
  }
  beam.print(std::cout);
  std::cout << "\n(transport mean free path 1/mus' = "
            << 1.0 / mc::homogeneous_white_matter()
                         .layer(0)
                         .props.mus_reduced()
            << " mm: the laser footprint stays a few mm RMS even 10 mm "
               "deep -> claim B)\n"
            << "series written to " << csv.path() << ", "
            << beam_csv.path() << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
