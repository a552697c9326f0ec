// Quickstart: the smallest complete use of the library.
//
//   1. describe a tissue (one semi-infinite layer of grey matter),
//   2. put a laser on the surface and a detector 10 mm away,
//   3. run the simulation through the distributed application,
//   4. read the answers off the merged tally.
//
// Build & run:  ./quickstart [--photons 50000] [--workers 4]
//               [--kernel-mode {scalar,packet}]
//               [--metrics-json PATH] [--trace PATH]
// (--kernel-mode packet selects the batched SoA photon loop,
//  ~3x faster and statistically equivalent, with its own deterministic
//  bit-stream; --metrics-json/--trace dump the run's observability:
//  counters as JSON, spans as Chrome trace-event JSON for Perfetto)
#include <iostream>

#include "core/app.hpp"
#include "mc/presets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  const std::string metrics_path = args.get("metrics-json", "");
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) obs::TraceRecorder::global().enable();

  // 1. The tissue: grey matter from the paper's Table 1 (µs' = 2.2/mm,
  //    µa = 0.036/mm), anisotropy 0.9, refractive index 1.4, below air.
  core::SimulationSpec spec;
  spec.kernel.medium = mc::homogeneous_grey_matter();

  // 2. A delta (laser) source at the origin and a 2 mm detector disc
  //    10 mm away on the surface.
  spec.kernel.source.type = mc::SourceType::kDelta;
  mc::DetectorSpec detector;
  detector.separation_mm = 10.0;
  detector.radius_mm = 2.0;
  spec.kernel.detector = detector;

  spec.photons = args.get_count("photons", 50'000);
  spec.seed = 42;
  spec.kernel.mode = mc::parse_kernel_mode(args.get("kernel-mode", "scalar"));

  // 3. Run on the in-process distributed platform (DataManager + workers).
  core::MonteCarloApp app(spec);
  core::ExecutionOptions options;
  options.workers = args.get_count("workers", 4);
  const core::RunSummary summary = app.run_distributed(options);
  const mc::SimulationTally& tally = summary.tally;

  // 4. The answers.
  std::cout << "photons launched:        " << tally.photons_launched() << "\n"
            << "specular reflectance:    " << tally.specular_reflectance()
            << "\n"
            << "diffuse reflectance:     " << tally.diffuse_reflectance()
            << "\n"
            << "absorbed fraction:       " << tally.absorbed_fraction()
            << "\n"
            << "photons detected:        " << tally.photons_detected()
            << "\n"
            << "mean detected pathlength: "
            << tally.mean_detected_pathlength() << " mm  ("
            << tally.mean_detected_pathlength() / detector.separation_mm
            << "x the optode separation)\n"
            << "tasks / workers:         " << summary.tasks << " / "
            << options.workers << "\n"
            << "energy ledger error:     "
            << tally.weight_conservation_error() << "\n";

  if (!metrics_path.empty()) {
    obs::write_metrics_json(obs::registry().snapshot(), metrics_path);
    std::cout << "metrics report:          " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_json(trace_path);
    std::cout << "trace:                   " << trace_path << "\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
