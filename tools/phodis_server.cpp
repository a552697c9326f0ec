// phodis_server — the DataManager side of a real multi-process cluster.
//
// Serves the photon task pool over a TCP or Unix-domain socket, collects
// the partial tallies returned by phodis_worker processes, merges them in
// task-id order, and (unless --no-verify) re-runs the same task plan
// serially to prove the distributed result is bitwise identical — the
// repo's core reproducibility invariant, now across process boundaries.
//
//   ./phodis_server --listen unix:/tmp/phodis.sock --photons 200000
//                   --chunk 5000 [--seed 11] [--lease 2.0] [--drop 0.05]
//                   [--checkpoint run.ckpt] [--merge-incremental]
//                   [--verify-threads N] [--no-verify]
//                   [--kernel-mode {scalar,packet}]
//                   [--metrics-json PATH] [--trace PATH] [--log-level LEVEL]
//
// --kernel-mode selects the photon loop the whole cluster runs (the mode
// ships inside the spec, so workers follow automatically). In packet mode
// the verify step also runs a scalar-mode reference of the same plan and
// prints an assertable "packet-vs-scalar statistical check: ... PASS"
// line (see mc/packet_kernel.hpp for the criterion).
//
// With --metrics-json, the server writes one cluster-wide metrics report
// at exit: its own registry (scheduling, wire, kernel counters) merged
// with every MetricsSnapshot frame the workers shipped after Shutdown.
// With --trace, spans (per-task on the server, per-shard on its verify
// rerun) are written as Chrome trace-event JSON for Perfetto.
//
// With --checkpoint, progress (tasks, completion bits, the merged tally
// so far) is persisted atomically as results arrive; a SIGKILLed server
// restarted with the same flags resumes instead of recomputing, and one
// restarted with a different plan is refused. Set-up, resume and merging
// are core::PlanServer's; results always fold into one running tally in
// task-id order, so --merge-incremental is accepted but changes nothing.
// Exits 0 only when every task completed (and, unless --no-verify, the
// local cross-check — run on --verify-threads pool threads — matched
// the distributed tally bitwise).
#include <iostream>

#include "core/app.hpp"
#include "dist/scheduler.hpp"
#include "mc/packet_kernel.hpp"
#include "mc/presets.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

/// The walkthrough medium of examples/cluster_throughput.cpp: grey
/// matter, semi-infinite.
phodis::core::SimulationSpec make_spec(std::uint64_t photons,
                                       std::uint64_t seed,
                                       phodis::mc::KernelMode mode) {
  phodis::core::SimulationSpec spec;
  spec.kernel.medium = phodis::mc::homogeneous_grey_matter();
  spec.kernel.mode = mode;
  spec.photons = photons;
  spec.seed = seed;
  return spec;
}

}  // namespace

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  util::set_log_level(util::parse_log_level(args.get("log-level", "info")));
  const std::string listen_spec =
      args.get("listen", "tcp:127.0.0.1:4070");
  const std::uint64_t seed = args.get_count("seed", 11);
  const double lease_s = args.get_double("lease", 2.0);
  const std::string checkpoint_path = args.get("checkpoint", "");
  dist::FaultSpec faults;
  faults.drop_probability = args.get_double("drop", 0.0);
  faults.seed = args.get_count("drop-seed", 2006);
  const std::string metrics_path = args.get("metrics-json", "");
  const std::string trace_path = args.get("trace", "");
  const std::uint64_t photons = args.get_count("photons", 200'000);
  std::uint64_t chunk = args.get_count("chunk", 0);
  const std::uint64_t verify_threads = args.get_count("verify-threads", 1);
  const mc::KernelMode mode =
      mc::parse_kernel_mode(args.get("kernel-mode", "scalar"));
  if (!trace_path.empty()) obs::TraceRecorder::global().enable();
  const core::MonteCarloApp app(make_spec(photons, seed, mode));
  if (chunk == 0) chunk = dist::suggest_chunk_size(photons, 4);
  core::PlanServer plan(app, chunk, lease_s, checkpoint_path);
  if (plan.resumed()) {
    std::cout << "phodis_server: resumed " << plan.completed_count()
              << " completed / " << plan.task_count() << " tasks from "
              << checkpoint_path << "\n";
  }

  net::Server transport(net::Address::parse(listen_spec), faults);
  std::cout << "phodis_server: listening on "
            << transport.local_address().to_string() << " ("
            << plan.task_count() << " tasks of <= " << chunk
            << " photons, lease " << lease_s << " s)" << std::endl;

  util::Stopwatch clock;
  dist::ServerLoopOptions loop_options;
  loop_options.checkpoint_every = 4;
  // Workers ship their registries (MetricsSnapshot frames) when they see
  // Shutdown; merge them here and give the frames a bounded drain window.
  obs::Snapshot worker_snapshots;
  loop_options.metrics_snapshot_sink =
      [&worker_snapshots](const std::string& sender,
                          const std::vector<std::uint8_t>& payload) {
        try {
          worker_snapshots.merge(obs::Snapshot::decode(payload));
        } catch (const std::exception& error) {
          util::log_warn()
              << "phodis_server: discarding bad metrics snapshot from \""
              << sender << "\": " << error.what();
        }
      };
  if (!metrics_path.empty()) loop_options.metrics_drain_ms = 400;

  // One cluster-wide report: the server registry (scheduling, wire, and
  // the kernel counters of the verify rerun) folded with every worker
  // snapshot that arrived.
  const auto dump_observability = [&] {
    if (!metrics_path.empty()) {
      obs::Snapshot cluster = obs::registry().snapshot();
      cluster.merge(worker_snapshots);
      obs::write_metrics_json(cluster, metrics_path);
      std::cout << "phodis_server: metrics report: " << metrics_path
                << std::endl;
    }
    if (!trace_path.empty()) {
      obs::TraceRecorder::global().write_json(trace_path);
      std::cout << "phodis_server: trace: " << trace_path << std::endl;
    }
  };

  const core::PlanResult result = plan.run(transport, loop_options);
  const double serve_seconds = clock.seconds();
  const mc::SimulationTally& tally = result.tally;
  const dist::DataManagerStats& stats = result.manager_stats;

  util::TextTable table({"metric", "value"});
  table.add_row({"tasks", std::to_string(plan.task_count())});
  table.add_row({"completions", std::to_string(stats.completions)});
  table.add_row({"re-issued leases",
                 std::to_string(stats.lease_expirations)});
  table.add_row({"duplicate results discarded",
                 std::to_string(stats.duplicate_results)});
  table.add_row({"frames sent / dropped",
                 std::to_string(transport.frames_sent()) + " / " +
                     std::to_string(transport.frames_dropped())});
  table.add_row({"serve wall seconds",
                 util::format_double(serve_seconds, 4)});
  table.add_row({"diffuse reflectance",
                 util::format_double(tally.diffuse_reflectance(), 6)});
  // Flushed as each part is known: a reader on a pipe sees the summary
  // before the serial re-run starts, not at exit.
  table.print(std::cout);
  std::cout.flush();

  transport.shutdown();

  if (args.get_flag("no-verify")) {
    std::cout << "serial cross-check: skipped (--no-verify)" << std::endl;
    dump_observability();
    return 0;
  }
  // run_parallel(1) is run_serial; more threads must not change a bit.
  // The rerun reconstructs the kernel from the same spec, so it checks
  // the distributed result in the SAME kernel mode — packet mode is
  // deterministic in itself and must merge bitwise-identically too.
  const mc::SimulationTally serial = app.run_parallel(verify_threads, chunk);
  const bool identical = serial.to_bytes() == tally.to_bytes();
  std::cout << "serial cross-check: bitwise-identical: "
            << (identical ? "yes" : "NO") << std::endl;
  bool stat_ok = true;
  if (mode == mc::KernelMode::kPacket) {
    // Packet mode additionally proves physics equivalence: an
    // independent scalar-mode reference of the same plan must agree
    // within kDefaultStatSigma combined standard errors. The line
    // below is asserted by tools/cluster_smoke.sh.
    const core::MonteCarloApp scalar_app(
        make_spec(photons, seed, mc::KernelMode::kScalar));
    const mc::SimulationTally reference =
        scalar_app.run_parallel(verify_threads, chunk);
    const mc::StatEquivalence eq =
        mc::statistical_equivalence(reference, tally);
    stat_ok = eq.pass;
    std::cout << "packet-vs-scalar statistical check: max_z="
              << util::format_double(eq.max_z, 2) << " (threshold "
              << util::format_double(mc::kDefaultStatSigma, 1)
              << "): " << (eq.pass ? "PASS" : "FAIL") << std::endl;
    if (!eq.pass) std::cout << eq.summary() << std::flush;
  }
  dump_observability();
  return identical && stat_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
