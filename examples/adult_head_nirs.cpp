// Near-infrared spectroscopy of the adult head — the paper's motivating
// application. Simulates the Table 1 five-layer head model with a chosen
// source footprint and optode separation, then reports what a NIRS
// experimenter needs: the energy budget per layer, the penetration-depth
// percentiles, the differential pathlength, and an ASCII map of where the
// light went.
//
// Run: ./adult_head_nirs [--photons 60000] [--separation 30]
//                        [--source delta|gaussian|uniform] [--radius 2.5]
//                        [--workers 4] [--trace 3]
#include <cmath>
#include <iostream>

#include "analysis/diffusion.hpp"
#include "analysis/render.hpp"
#include "core/app.hpp"
#include "core/experiments.hpp"
#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const auto photons = args.get_count("photons", 60'000);
  const double separation = args.get_double("separation", 30.0);
  const auto workers = args.get_count("workers", 4);
  const auto traces = args.get_count("trace", 3);

  core::SimulationSpec spec =
      core::fig4_head_spec(photons, 50, separation, 7);
  spec.kernel.source.type =
      mc::parse_source_type(args.get("source", "delta"));
  if (spec.kernel.source.type != mc::SourceType::kDelta) {
    spec.kernel.source.radius_mm = args.get_double("radius", 2.5);
  }

  std::cout << "Adult-head NIRS simulation: " << photons << " photons, "
            << mc::to_string(spec.kernel.source.type) << " source, optodes "
            << separation << " mm apart\n\n";

  core::MonteCarloApp app(spec);
  core::ExecutionOptions options;
  options.workers = workers;
  const core::RunSummary summary = app.run_distributed(options);
  const mc::SimulationTally& tally = summary.tally;

  // Energy budget per layer.
  const mc::LayeredMedium& head = spec.kernel.medium;
  util::TextTable table({"layer", "span (mm)", "absorbed fraction",
                         "diffusion 1/e depth (mm)"});
  for (std::size_t i = 0; i < head.layer_count(); ++i) {
    const mc::Layer& layer = head.layer(i);
    table.add_row(
        {layer.name,
         util::format_double(layer.z0, 3) + "-" +
             (std::isinf(layer.z1) ? std::string("inf")
                                   : util::format_double(layer.z1, 3)),
         util::format_double(tally.absorbed_weight(i) /
                                 static_cast<double>(photons),
                             4),
         util::format_double(analysis::penetration_depth(layer.props), 4)});
  }
  table.print(std::cout);

  std::cout << "\nreflected (diffuse + specular): "
            << tally.diffuse_reflectance() + tally.specular_reflectance()
            << "\n";
  std::cout << "photons detected at " << separation
            << " mm: " << tally.photons_detected();
  if (tally.photons_detected() > 0) {
    std::cout << "   mean optical pathlength "
              << tally.mean_detected_pathlength() << " mm (DPF "
              << tally.mean_detected_pathlength() / separation << ")";
  } else {
    std::cout << "   (none at this budget: the paper used 10^9 photons "
                 "for this geometry)";
  }
  std::cout << "\n\nmax-depth percentiles: 50% "
            << tally.depth_histogram().quantile(0.5) << " mm, 95% "
            << tally.depth_histogram().quantile(0.95) << " mm, 99.9% "
            << tally.depth_histogram().quantile(0.999) << " mm\n";

  // Sample individual photon paths for intuition.
  if (traces > 0) {
    std::cout << "\nsample photon paths (first vertices):\n";
    const mc::Kernel kernel(spec.kernel);
    util::Xoshiro256pp rng(123);
    for (std::size_t t = 0; t < traces; ++t) {
      const mc::PhotonTrace trace = kernel.trace(rng, 6);
      std::cout << "  photon " << t << ": ";
      for (const auto& v : trace.vertices) {
        std::cout << "(" << util::format_double(v.x, 3) << ","
                  << util::format_double(v.z, 3) << ") ";
      }
      std::cout << "... [" << trace.vertices.size() << "+ vertices]\n";
    }
  }

  std::cout << "\nfluence map (y=0 slice, 80 cols x 30 rows):\n"
            << analysis::render_ascii_slice(*tally.fluence_grid(),
                                            {0.0, true, 1e-4, 80, 30});
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
