// Kernel throughput benchmark — the tracked perf baseline of the compiled
// hot path (photons/sec per preset) and the producer of BENCH_kernel.json.
//
// Presets:
//  * two_layer        — grey-over-white phantom with the cylindrical
//                       (r,z) radial tally, i.e. the standard MCML-style
//                       output mode (R(rho) + A(r,z)). The DEFAULT,
//                       headline preset: no real run scores nothing.
//  * two_layer_bare   — the same phantom with scalar totals only: the
//                       pure transport loop, no per-interaction scoring.
//  * white_matter     — homogeneous semi-infinite white matter (Fig. 3).
//  * head_model       — the five-layer adult head of Table 1 (Fig. 4).
//  * two_layer_mt<N>  — with --threads N: one task's shard plan through
//                       exec::ParallelKernelRunner on an N-thread pool.
//
// Packet mode is timed once per instruction-set build the CPU can execute
// (mc::PacketIsa), through that build's own entry point, so one run
// records e.g. both avx2 and avx512 rows; the threaded preset runs the
// dispatched build, as every product caller does. Each JSON entry names
// its build in "isa" ("baseline" for the scalar loop).
//
// Usage:
//   bench_kernel                      human-readable table
//   bench_kernel --json               ...plus BENCH_kernel.json in cwd
//   bench_kernel --json=path.json     ...at an explicit path
//   bench_kernel --check BASE.json [--tolerance 0.2]
//                                     exit 1 if any preset's best
//                                     photons/sec fell >20% below the
//                                     committed baseline entry with the
//                                     same (name, mode, isa); entries on
//                                     one side only are skipped, and so
//                                     is a missing baseline file (exit 0)
//   --photons N --reps R --quick --threads N --seed S
//   --kernel-mode {scalar,packet,both}
//                                     which photon loop(s) to measure
//                                     (default scalar; "both" emits one
//                                     JSON entry per preset per mode)
//   --metrics-json PATH               dump the obs registry, kernel
//                                     counters included
//   --trace PATH                      Chrome trace-event spans (Perfetto)
//
// Numbers are comparable only within one machine; see bench_report.hpp
// for the fixed-work/warm-up/best-of-reps protocol that makes them stable
// enough to threshold on a 1-core CI runner.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "exec/parallel.hpp"
#include "exec/threadpool.hpp"
#include "mc/kernel.hpp"
#include "mc/packet_kernel.hpp"
#include "mc/presets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace phodis;

mc::Kernel two_layer_radial_kernel(mc::KernelMode mode) {
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  config.tally.enable_radial = true;
  config.mode = mode;
  return mc::Kernel(std::move(config));
}

mc::Kernel bare_kernel(mc::LayeredMedium medium, mc::KernelMode mode) {
  mc::KernelConfig config;
  config.medium = std::move(medium);
  config.mode = mode;
  return mc::Kernel(std::move(config));
}

/// Threaded variant: the same fixed-work protocol as measure_preset, but
/// each rep runs one task's shard plan on the pool.
bench::PresetResult measure_sharded(const std::string& name,
                                    const mc::Kernel& kernel,
                                    std::size_t threads,
                                    const bench::MeasureOptions& options) {
  std::optional<exec::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const exec::ParallelKernelRunner runner(kernel, pool ? &*pool : nullptr,
                                          4096);
  (void)runner.run(options.warmup_photons, options.seed, /*task_id=*/0);
  std::vector<double> rep_pps;
  rep_pps.reserve(static_cast<std::size_t>(options.reps));
  for (int rep = 0; rep < options.reps; ++rep) {
    const util::Stopwatch timer;
    const mc::SimulationTally tally = runner.run(
        options.photons, options.seed, static_cast<std::uint64_t>(rep + 1));
    const double seconds = timer.seconds();
    (void)tally;
    rep_pps.push_back(static_cast<double>(options.photons) / seconds);
  }
  return bench::finalize_preset(name, options.photons, std::move(rep_pps));
}

}  // namespace

int run(const util::CliArgs& args) {
  const std::string metrics_path = args.get("metrics-json", "");
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) obs::TraceRecorder::global().enable();

  bench::MeasureOptions options;
  options.photons = args.get_count("photons", 20'000);
  options.reps = static_cast<int>(std::clamp<std::uint64_t>(
      args.get_count("reps", 5), 1, std::numeric_limits<int>::max()));
  options.seed = args.get_count("seed", 42);
  const std::uint64_t threads = args.get_count("threads", 0);
  if (args.get_flag("quick")) {
    options.photons = 4'000;
    options.reps = 3;
    options.warmup_photons = 1'000;
  }

  const std::string mode_arg = args.get("kernel-mode", "scalar");
  std::vector<mc::KernelMode> modes;
  if (mode_arg == "both") {
    modes = {mc::KernelMode::kScalar, mc::KernelMode::kPacket};
  } else {
    modes = {mc::parse_kernel_mode(mode_arg)};  // throws on junk
  }

  bench::Report report;
  std::printf("bench_kernel: %llu photons/rep, %d reps (best-of shown)\n",
              static_cast<unsigned long long>(options.photons), options.reps);
  const mc::PacketIsa dispatched = mc::dispatched_packet_isa();
  std::vector<mc::PacketIsa> packet_isas;
  std::printf("packet ISA: %s dispatched; builds this CPU runs:",
              mc::to_string(dispatched).c_str());
  for (const mc::PacketIsa isa : mc::kPacketIsas) {
    if (!mc::packet_isa_supported(isa)) continue;
    packet_isas.push_back(isa);
    std::printf(" %s", mc::to_string(isa).c_str());
  }
  std::printf("\n");

  const auto record = [&report](bench::PresetResult r) {
    std::printf("  %-18s %-7s %-8s %10.0f photons/sec (median %10.0f)\n",
                r.name.c_str(), r.mode.c_str(), r.isa.c_str(), r.best_pps,
                r.median_pps);
    report.presets.push_back(std::move(r));
  };

  for (const mc::KernelMode mode : modes) {
    const std::string mode_name = mc::to_string(mode);
    const bool packet = mode == mc::KernelMode::kPacket;
    const struct {
      const char* name;
      mc::Kernel kernel;
    } presets[] = {
        {"two_layer", two_layer_radial_kernel(mode)},
        {"two_layer_bare", bare_kernel(mc::two_layer_model(), mode)},
        {"white_matter", bare_kernel(mc::homogeneous_white_matter(), mode)},
        {"head_model", bare_kernel(mc::adult_head_model(), mode)},
    };
    // The scalar loop has one build; the packet loop one per PacketIsa.
    std::vector<std::optional<mc::PacketIsa>> builds{std::nullopt};
    if (packet) builds.assign(packet_isas.begin(), packet_isas.end());
    for (const std::optional<mc::PacketIsa>& isa : builds) {
      for (const auto& preset : presets) {
        bench::PhotonRun run = std::bind_front(&mc::Kernel::run,
                                               &preset.kernel);
        if (isa) {
          // The same work as Kernel::run, on this build: run, then
          // one registry flush.
          run = [&kernel = preset.kernel,
                 build = mc::packet_isa_build(*isa).run](
                    std::uint64_t photons, util::Xoshiro256pp& rng,
                    mc::SimulationTally& tally) {
            mc::KernelStats stats;
            build(kernel, photons, rng, tally, stats);
            stats.flush();
          };
        }
        bench::PresetResult r =
            bench::measure_preset(preset.name, preset.kernel, run, options);
        r.mode = mode_name;
        if (isa) r.isa = mc::to_string(*isa);
        record(std::move(r));
      }
    }

    if (threads > 1) {
      const std::string name = "two_layer_mt" + std::to_string(threads);
      bench::PresetResult r =
          measure_sharded(name, presets[0].kernel, threads, options);
      r.mode = mode_name;
      if (packet) r.isa = mc::to_string(dispatched);
      record(std::move(r));
    }
  }

  if (args.has("json") || args.get_flag("json")) {
    const std::string path = [&] {
      const std::string value = args.get("json", "");
      return (value.empty() || value == "true") ? "BENCH_kernel.json" : value;
    }();
    bench::write_json(report, path);
    std::printf("wrote %s\n", path.c_str());
  }

  if (!metrics_path.empty()) {
    obs::write_metrics_json(obs::registry().snapshot(), metrics_path);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_json(trace_path);
    std::printf("wrote %s\n", trace_path.c_str());
  }

  if (args.has("check")) {
    const std::string baseline = args.get("check", "");
    const double tolerance = args.get_double("tolerance", 0.20);
    const bench::CheckResult check =
        bench::check_against_baseline(report, baseline, tolerance);
    for (const std::string& line : check.lines) {
      std::printf("%s\n", line.c_str());
    }
    if (!check.regressions.empty()) {
      std::printf("FAIL: %zu preset(s) regressed more than %.0f%%\n",
                  check.regressions.size(), tolerance * 100.0);
      return 1;
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
