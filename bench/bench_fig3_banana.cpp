// Fig. 3 — "Simulation with a laser source and granularity of 50^3 in
// homogeneous white matter tissue": the banana-shaped spatial sensitivity
// profile of detected photon paths, after thresholding.
//
// The paper traced 10^9 photons at a 2 h cluster budget; the default here
// is laptop-scale (shorter source-detector separation so that detections
// are plentiful), and --photons/--separation restore paper-scale runs.
//
// Flags: --photons N (default 150000), --granularity G (50),
//        --separation mm (8), --threshold f (0.001), --seed S (2006)
#include <iostream>

#include "analysis/banana.hpp"
#include "analysis/render.hpp"
#include "core/app.hpp"
#include "core/experiments.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 150'000);
  const auto granularity = args.get_count("granularity", 50);
  const double separation = args.get_double("separation", 8.0);
  const double threshold = args.get_double("threshold", 1e-3);
  const auto seed = args.get_count("seed", 2006);

  std::cout << "=== Fig. 3: detected photon paths in homogeneous white "
               "matter (laser source, granularity "
            << granularity << "^3) ===\n"
            << photons << " photons, source-detector separation "
            << separation << " mm\n\n";

  core::SimulationSpec spec =
      core::fig3_banana_spec(photons, granularity, separation, seed);
  core::MonteCarloApp app(spec);
  util::Stopwatch stopwatch;
  const mc::SimulationTally tally = app.run_serial();
  std::cout << "simulated in " << stopwatch.seconds() << " s; detected "
            << tally.photons_detected() << " photons ("
            << tally.detected_fraction() * 100.0 << " % of weight)\n\n";

  if (tally.photons_detected() == 0) {
    std::cout << "no detections at this photon budget; increase --photons "
                 "or reduce --separation\n";
    return 1;
  }

  mc::VoxelGrid3D grid = *tally.path_grid();
  const double kept = analysis::threshold_grid(grid, threshold);
  std::cout << "thresholding at " << threshold
            << " of max keeps " << kept * 100.0 << " % of visit weight\n\n";

  analysis::RenderOptions options;
  options.max_cols = 80;
  options.max_rows = 32;
  std::cout << "y = 0 slice (x: source->detector, z: depth):\n"
            << analysis::render_ascii_slice(grid, options) << "\n";

  const analysis::BananaMetrics metrics =
      analysis::banana_metrics(grid, separation);
  util::TextTable table({"metric", "value"});
  table.add_row({"banana shaped", metrics.is_banana_shaped() ? "yes" : "no"});
  table.add_row({"midpoint mean depth (mm)",
                 util::format_double(metrics.midpoint_mean_depth_mm, 4)});
  table.add_row({"endpoint mean depth (mm)",
                 util::format_double(metrics.endpoint_mean_depth_mm, 4)});
  table.add_row({"left/right asymmetry",
                 util::format_double(metrics.asymmetry, 4)});
  table.add_row({"visits between optodes",
                 util::format_double(metrics.between_fraction * 100.0, 4) +
                     " %"});
  table.add_row({"mean detected pathlength (mm)",
                 util::format_double(tally.mean_detected_pathlength(), 5)});
  table.add_row({"differential pathlength factor",
                 util::format_double(
                     tally.mean_detected_pathlength() / separation, 4)});
  table.print(std::cout);

  const std::string slice_path =
      util::output_file(args, "fig3_banana_slice.csv");
  analysis::write_csv_slice(grid, slice_path);
  util::CsvWriter profile_csv(
      util::output_file(args, "fig3_depth_profile.csv"));
  profile_csv.header({"x_mm", "total_visits", "mean_depth_mm"});
  for (const auto& point : metrics.profile) {
    profile_csv.row({point.x_mm, point.total_visits, point.mean_depth_mm});
  }
  std::cout << "\nslice written to " << slice_path << ", depth profile to "
            << profile_csv.path() << "\n";
  return metrics.is_banana_shaped() ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
