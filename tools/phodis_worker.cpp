// phodis_worker — the client side of a real multi-process cluster (the
// paper's `Algorithm` on a non-dedicated PC).
//
// Connects to a phodis_server, pulls tasks, runs their photons, returns
// serialised partial tallies, and exits when the server says the run is
// complete. Connection loss is survived by reconnecting with backoff; a
// server that stays gone makes the worker exit non-zero instead of
// spinning.
//
//   ./phodis_worker --connect unix:/tmp/phodis.sock [--name w0]
//                   [--threads 0] [--drop 0.0] [--drop-seed 2006]
//                   [--death 0.0] [--death-seed 2006]
//                   [--reconnect-attempts 20]
//                   [--kernel-mode {auto,scalar,packet}]
//                   [--metrics-json PATH] [--trace PATH] [--log-level LEVEL]
//
// --kernel-mode auto (the default) runs each task in the mode its spec
// names — the server decides, workers follow. scalar/packet force that
// loop regardless of the spec: an operator escape hatch (e.g. a host
// where one loop is known-bad). A forced mode that differs from the
// server's own produces statistically-equivalent but not bitwise-equal
// tallies, so the server's bitwise cross-check will rightly flag it.
//
// --threads N gives the process N task slots (0, the default, = one per
// core; see dist::run_worker_slots). Each slot holds its own lease over
// its own connection and runs its task's shards serially on its own
// thread, so one process keeps N tasks in flight; the server sees N
// workers named NAME, NAME.1, .., NAME.<N-1>. A task larger than one
// 4096-photon shard therefore runs on one core. The returned tallies are
// bitwise identical for every N. Each slot's drop and death streams are
// seeded from --drop-seed/--death-seed and its slot index, so slots do
// not fault in lockstep; with one slot the seeds are used as given.
// --death injects the paper's client churn without a kill(1): the slot
// abandons that assignment and rejoins under a fresh name (NAME#1, ..),
// leaving the lease to expire server-side.
//
// On Shutdown the worker ships its registry (kernel, slot, wire counters)
// to the server as one MetricsSnapshot frame for the cluster-wide report;
// --metrics-json additionally writes the same snapshot locally, and
// --trace writes this process's spans as Chrome trace-event JSON.
#include <unistd.h>

#include <cstdint>
#include <iostream>
#include <stdexcept>

#include "core/app.hpp"
#include "core/spec.hpp"
#include "dist/runtime.hpp"
#include "exec/threadpool.hpp"
#include "mc/kernel.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

int run(const phodis::util::CliArgs& args) {
  using namespace phodis;
  util::set_log_level(util::parse_log_level(args.get("log-level", "info")));
  const std::string connect_spec =
      args.get("connect", "tcp:127.0.0.1:4070");
  std::string default_name = "w";
  default_name += std::to_string(::getpid());
  const std::string name = args.get("name", default_name);
  dist::FaultSpec faults;
  faults.drop_probability = args.get_double("drop", 0.0);
  faults.seed = args.get_count("drop-seed", 2006);
  const std::string metrics_path = args.get("metrics-json", "");
  const std::string trace_path = args.get("trace", "");
  const std::uint64_t threads_arg = args.get_count("threads", 0);
  const std::size_t slots =
      threads_arg == 0 ? exec::ThreadPool::default_thread_count()
                       : static_cast<std::size_t>(threads_arg);
  net::ReconnectPolicy reconnect;
  reconnect.max_attempts = args.get_count("reconnect-attempts", 20);
  const net::Address server = net::Address::parse(connect_spec);
  dist::WorkerLoopOptions options;
  options.name = name;
  options.death_probability = args.get_double("death", 0.0);
  options.death_seed = args.get_count("death-seed", 2006);
  dist::TaskExecutor executor = &core::Algorithm::execute;
  if (const std::string mode_arg = args.get("kernel-mode", "auto");
      mode_arg != "auto") {
    const mc::KernelMode forced = mc::parse_kernel_mode(mode_arg);
    executor = [inner = std::move(executor), forced](
                   std::uint64_t task_id,
                   const std::vector<std::uint8_t>& payload) {
      core::TaskPayload task = core::TaskPayload::decode(payload);
      if (task.spec.kernel.mode == forced) return inner(task_id, payload);
      task.spec.kernel.mode = forced;
      return inner(task_id, task.encode());
    };
  }
  if (!trace_path.empty()) obs::TraceRecorder::global().enable();
  const dist::WorkerLoopOutcome outcome =
      dist::run_worker_slots(slots,
                             net::slot_clients(server, faults, slots,
                                               reconnect),
                             executor, options,
                             /*send_metrics_snapshot=*/true);
  std::cout << "phodis_worker " << outcome.final_name << ": executed "
            << outcome.tasks_executed << " tasks on " << slots
            << (slots == 1 ? " slot" : " slots") << ", died "
            << outcome.deaths << " times, "
            << (outcome.saw_shutdown ? "shut down by server"
                                     : "lost the server")
            << "\n";
  if (!metrics_path.empty()) {
    obs::write_metrics_json(obs::registry().snapshot(), metrics_path);
    std::cout << "phodis_worker " << outcome.final_name
              << ": metrics report: " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_json(trace_path);
    std::cout << "phodis_worker " << outcome.final_name
              << ": trace: " << trace_path << "\n";
  }
  return outcome.saw_shutdown ? 0 : 2;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
