// Machine-readable kernel-benchmark reporting: fixed-work measurement,
// JSON emission (BENCH_kernel.json), and regression checking against a
// committed baseline. Self-contained (no google-benchmark) so the perf
// trajectory is tracked on every machine the repo builds on.
//
// Measurement discipline for thresholdable numbers on noisy 1-core CI
// runners (the satellite this file exists for):
//  * photon counts are PINNED per preset — never time-adaptive — so every
//    run does identical work and two JSON files are directly comparable;
//  * a warm-up batch runs first (touches the code path, the tally
//    allocations, and the instruction/page cache) and is discarded;
//  * each preset runs `reps` times and reports the BEST photons/sec along
//    with the median and every rep. Interference from co-tenants only ever
//    *slows* a rep, so the max over reps is the stablest estimator of
//    machine capability, and it is the number the regression check
//    thresholds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace phodis::mc {
class Kernel;
class SimulationTally;
}  // namespace phodis::mc

namespace phodis::util {
class Xoshiro256pp;
}

namespace phodis::bench {

struct PresetResult {
  std::string name;
  std::string mode = "scalar";  ///< kernel mode ("scalar" | "packet")
  /// The instruction-set build that ran: "avx2" | "avx512" for packet
  /// (mc::PacketIsa), "baseline" for the scalar loop, which is compiled
  /// at the toolchain's default ISA.
  std::string isa = "baseline";
  std::uint64_t photons = 0;  ///< photons per rep (pinned)
  double best_pps = 0.0;      ///< max photons/sec over reps (thresholded)
  double median_pps = 0.0;
  std::vector<double> rep_pps;
};

struct Report {
  std::vector<PresetResult> presets;
};

struct MeasureOptions {
  std::uint64_t warmup_photons = 2'000;
  std::uint64_t photons = 20'000;
  int reps = 5;
  std::uint64_t seed = 42;
};

/// Simulate `photons` into the tally from the stream: one kernel entry
/// point (Kernel::run, or one packet ISA build's run).
using PhotonRun = std::function<void(std::uint64_t, util::Xoshiro256pp&,
                                     mc::SimulationTally&)>;

/// Run `kernel` through `run` under the fixed-work protocol above.
PresetResult measure_preset(const std::string& name, const mc::Kernel& kernel,
                            const PhotonRun& run,
                            const MeasureOptions& options);

/// Assemble a PresetResult from raw per-rep photons/sec samples (computes
/// best and median). Shared by measure_preset and custom measurement
/// loops (e.g. bench_kernel's threaded shard variant) so every preset in
/// one JSON file uses the same statistics.
PresetResult finalize_preset(std::string name, std::uint64_t photons,
                             std::vector<double> rep_pps);

/// Serialize the report as pretty-printed JSON at `path`.
void write_json(const Report& report, const std::string& path);

/// One baseline entry, keyed by (name, mode, isa). Schema-v1 files (no
/// per-preset "mode" field) load with mode = "scalar"; files before
/// schema v3 (no "isa" field) load packet entries as "avx2" — the only
/// packet build there was — and scalar entries as "baseline".
struct BaselineEntry {
  std::string name;
  std::string mode;
  std::string isa;
  double best_pps = 0.0;
};

/// Extract the baseline entries from a JSON file previously written by
/// write_json (targeted scan, not a general JSON parser). Returns an
/// empty vector when the file is missing or contains no presets.
std::vector<BaselineEntry> read_baseline(const std::string& path);

struct CheckResult {
  bool baseline_found = false;
  /// Presets whose best_pps fell more than `tolerance` below baseline.
  std::vector<std::string> regressions;
  /// Human-readable per-preset comparison lines.
  std::vector<std::string> lines;
};

/// Compare `report` against a committed baseline JSON, entry by entry
/// with equal (name, mode, isa). A preset regresses when current best_pps
/// < (1 - tolerance) * baseline best_pps. Entries present on only one
/// side (e.g. avx512 rows on a CPU without AVX-512) are reported as
/// skipped and never fail the check.
CheckResult check_against_baseline(const Report& report,
                                   const std::string& baseline_path,
                                   double tolerance);

}  // namespace phodis::bench
