// perfbench_cluster — the socket-cluster benchmark.
//
// Every workload is phodis_server's own configuration: the grey-matter
// semi-infinite medium of tools/phodis_server.cpp, the server's default
// chunk rule, a checkpoint after every 4 results and --merge-incremental
// (as tools/cluster_smoke.sh runs it), served to kWorkers workers over a
// Unix-domain socket.
//
// --trace 0 (end to end) runs the shipped binaries. One iteration:
//   set-up          spawn phodis_server .. its "listening on" line (plan
//                   built, DataManager filled, socket bound);
//   time to result  spawn the phodis_worker processes .. the server has
//                   merged every result, written its final checkpoint and
//                   exited.
// The final checkpoint carries the server's merged tally; it must be
// bitwise equal to the same plan run in-process on a thread pool (the
// repository's reproducibility contract), and the server and every worker
// must exit 0, else the iteration fails.
//
// --trace 1 (per layer) serves the same plan inside this process so that
// each stage can be timed: net::Server on the socket with
// dist::run_server_loop on the main thread, kWorkers threads each running
// dist::run_worker_loop over its own net::Client, every transport wrapped
// in a timing decorator and the worker's task steps run one by one. The
// stages must cover at least 95% of server and worker wall time (the
// attribution gate); otherwise the run is reported incorrect and the gap
// is named on stderr.
//
//   perfbench_cluster --workload NAME --seed N --seconds S --trace 0|1
//                     --server-bin PATH --worker-bin PATH --work-dir DIR
//
// Iterations repeat until --seconds have passed. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/app.hpp"
#include "core/merger.hpp"
#include "core/spec.hpp"
#include "dist/runtime.hpp"
#include "dist/scheduler.hpp"
#include "exec/parallel.hpp"
#include "mc/kernel.hpp"
#include "mc/layer.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace phodis;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Two workers leave two of a 4-core host's cores to the server and the
// socket reader threads; with three, the figures spread noticeably more.
constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kPlans = 4;
// phodis_server's fixed settings, mirrored by the in-process harness.
constexpr double kServerLeaseS = 2.0;
constexpr std::uint64_t kServerCheckpointEvery = 4;
constexpr double kAttributionFloor = 0.95;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::uint64_t photons = 8000;
  std::uint64_t chunk = 0;  // 0: phodis_server picks it
  mc::KernelMode mode = mc::KernelMode::kScalar;

  /// phodis_server's rule for an unset --chunk.
  std::uint64_t chunk_photons() const {
    return chunk != 0 ? chunk : dist::suggest_chunk_size(photons, 4);
  }
};

// Each workload varies one property of server_default:
//  * server_default  scalar loop, default chunk (16 tasks): the photon
//                    kernel takes almost all of a worker's time.
//  * packet          --kernel-mode packet: the ~3x faster batched kernel,
//                    so process start-up, wire and merge weigh more.
//  * fine_chunk      --chunk 50 (160 tasks, 40 checkpoints): fine-grained
//                    self-scheduling for uneven workers, so per-task
//                    leasing, wire, merge and checkpoint costs show.
Workload make_workload(const std::string& name) {
  Workload w;
  if (name == "server_default") {
  } else if (name == "packet") {
    w.mode = mc::KernelMode::kPacket;
  } else if (name == "fine_chunk") {
    w.chunk = 50;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// The spec phodis_server builds (make_spec in tools/phodis_server.cpp):
/// grey matter, semi-infinite. A drift between the two fails every
/// end-to-end iteration's bitwise check.
core::SimulationSpec server_spec(const Workload& w, std::uint64_t seed) {
  core::SimulationSpec spec;
  mc::LayeredMediumBuilder builder;
  builder.add_semi_infinite_layer(
      "grey matter",
      mc::OpticalProperties::from_reduced(0.036, 2.2, 0.9, 1.4));
  spec.kernel.medium = builder.build();
  spec.kernel.mode = w.mode;
  spec.photons = w.photons;
  spec.seed = seed;
  return spec;
}

struct Plan {
  core::SimulationSpec spec;
  std::uint64_t tasks = 0;
  std::vector<std::uint8_t> reference;  // merged tally bytes
};

struct Paths {
  std::string server_bin;
  std::string worker_bin;
  std::string socket;
  std::string checkpoint;
};

struct IterationTimes {
  double setup_s = 0.0;
  double time_to_result_s = 0.0;
  double cpu_s = 0.0;  // user + system time of the server and the workers
};

// ---------------------------------------------------------------------------
// End to end (--trace 0): phodis_server and phodis_worker processes
// ---------------------------------------------------------------------------

/// Child processes of one iteration; whatever is still running when the
/// group goes out of scope is killed and reaped.
class Children {
 public:
  Children() = default;
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;
  ~Children() {
    for (pid_t pid : running_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  double cpu_s() const { return cpu_s_; }

  /// Starts argv[0] with stdout on `stdout_fd`, or on /dev/null when it is
  /// -1 (stderr is inherited).
  pid_t spawn(const std::vector<std::string>& args, int stdout_fd = -1) {
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (stdout_fd >= 0) {
      posix_spawn_file_actions_adddup2(&actions, stdout_fd, STDOUT_FILENO);
    } else {
      posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                       O_WRONLY, 0);
    }
    pid_t pid = 0;
    const int rc =
        ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + args[0] + ": " +
                               std::strerror(rc));
    }
    running_.push_back(pid);
    return pid;
  }

  /// Exit code of `pid`, waiting until `deadline` (then killing it). Adds
  /// the process's CPU time to cpu_s().
  int wait(pid_t pid, Clock::time_point deadline) {
    int status = 0;
    rusage usage{};
    while (::wait4(pid, &status, WNOHANG, &usage) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::wait4(pid, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto to_s = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    cpu_s_ += to_s(usage.ru_utime) + to_s(usage.ru_stime);
    std::erase(running_, pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

 private:
  std::vector<pid_t> running_;
  double cpu_s_ = 0.0;
};

/// Read end of a pipe; the write end becomes a child's stdout.
class Pipe {
 public:
  Pipe() {
    if (::pipe2(fds_, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  ~Pipe() {
    close_write();
    ::close(fds_[0]);
  }
  int write_fd() const { return fds_[1]; }
  void close_write() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

  /// Appends to text until it contains `marker` (true) or EOF (false).
  /// An empty marker reads to EOF. Throws at `deadline`.
  bool read_until(const std::string& marker, std::string& text,
                  Clock::time_point deadline) {
    char buf[4096];
    while (marker.empty() || text.find(marker) == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        throw std::runtime_error("phodis_server output timed out");
      }
      pollfd pfd{fds_[0], POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) < 0 &&
          errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      if (pfd.revents == 0) continue;
      const ssize_t n = ::read(fds_[0], buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      text.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fds_[2] = {-1, -1};
};

/// The server's merged tally, as its final checkpoint records it.
std::vector<std::uint8_t> checkpointed_tally(const Plan& plan,
                                             const std::string& path) {
  dist::DataManager manager(kServerLeaseS);
  const std::vector<std::uint8_t> state = manager.restore_from_file(path);
  core::IncrementalTallyMerger merger(plan.spec);
  merger.restore(state);
  if (manager.completed_count() != plan.tasks ||
      merger.frontier() != plan.tasks) {
    throw std::runtime_error("final checkpoint is missing results");
  }
  return merger.merged().to_bytes();
}

void remove_run_files(const Paths& paths) {
  std::filesystem::remove(paths.checkpoint);
  std::filesystem::remove(paths.checkpoint + ".meta");
  std::filesystem::remove(paths.socket);
}

IterationTimes run_processes(const Workload& workload, const Plan& plan,
                             const Paths& paths) {
  remove_run_files(paths);
  std::vector<std::string> server_args = {
      paths.server_bin,
      "--listen", "unix:" + paths.socket,
      "--photons", std::to_string(plan.spec.photons),
      "--seed", std::to_string(plan.spec.seed),
      "--kernel-mode", mc::to_string(workload.mode),
      "--checkpoint", paths.checkpoint,
      "--merge-incremental",
      "--no-verify",
  };
  if (workload.chunk != 0) {
    server_args.push_back("--chunk");
    server_args.push_back(std::to_string(workload.chunk));
  }

  IterationTimes times;
  Children children;
  Pipe server_out;
  std::string server_text;

  const Clock::time_point setup_start = Clock::now();
  const pid_t server = children.spawn(server_args, server_out.write_fd());
  server_out.close_write();
  if (!server_out.read_until("listening on", server_text,
                             setup_start + std::chrono::seconds(10))) {
    children.wait(server, Clock::now());
    throw std::runtime_error("phodis_server exited before listening:\n" +
                             server_text);
  }
  const Clock::time_point run_start = Clock::now();
  times.setup_s = seconds_between(setup_start, run_start);

  // A worker's stdout only carries its exit summary; errors go to stderr.
  std::vector<pid_t> workers;
  for (std::size_t slot = 0; slot < kWorkers; ++slot) {
    workers.push_back(children.spawn(
        {paths.worker_bin, "--connect", "unix:" + paths.socket, "--name",
         "w" + std::to_string(slot)}));
  }
  // The server's stdout reaches EOF as it exits.
  const Clock::time_point deadline = run_start + std::chrono::seconds(60);
  server_out.read_until("", server_text, deadline);
  const int server_rc = children.wait(server, deadline);
  times.time_to_result_s = seconds_between(run_start, Clock::now());

  std::string failure;
  if (server_rc != 0) {
    failure = "phodis_server exited " + std::to_string(server_rc);
  }
  for (pid_t worker : workers) {
    const int rc =
        children.wait(worker, Clock::now() + std::chrono::seconds(10));
    if (rc != 0 && failure.empty()) {
      failure = "phodis_worker exited " + std::to_string(rc);
    }
  }
  if (failure.empty() &&
      checkpointed_tally(plan, paths.checkpoint) != plan.reference) {
    failure = "merged tally differs from the reference";
  }
  remove_run_files(paths);
  if (!failure.empty()) {
    throw std::runtime_error(failure + "\n" + server_text);
  }
  times.cpu_s = children.cpu_s();
  return times;
}

// ---------------------------------------------------------------------------
// Per layer (--trace 1): the same plan served in-process, stage by stage
// ---------------------------------------------------------------------------

/// Durations (seconds) recorded by one thread; merged after the join.
struct StageLog {
  std::vector<double> decode;     // payload decode + kernel build
  std::vector<double> kernel;     // photon loop
  std::vector<double> serialize;  // tally -> bytes
  std::vector<double> send;
  std::vector<double> merge;
  std::vector<double> checkpoint;
  double recv_wait = 0.0;  // blocked in receive()
  double backoff = 0.0;    // NoWork reply .. next request
  double wall = 0.0;       // whole loop
  std::uint64_t no_work = 0;

  void absorb(const StageLog& o) {
    for (auto [dst, src] : {std::pair{&decode, &o.decode},
                            std::pair{&kernel, &o.kernel},
                            std::pair{&serialize, &o.serialize},
                            std::pair{&send, &o.send},
                            std::pair{&merge, &o.merge},
                            std::pair{&checkpoint, &o.checkpoint}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    recv_wait += o.recv_wait;
    backoff += o.backoff;
    wall += o.wall;
    no_work += o.no_work;
  }
};

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double d : v) total += d;
  return total;
}

/// Decorates a Transport with stage timing. Two stages end at the next
/// transport call rather than inside one: the worker's NoWork back-off
/// (run_worker_loop sleeps, then sends its next request) and a server
/// checkpoint (ServerLoopOptions::checkpoint_state runs right before the
/// file write, after which the loop receives or broadcasts again).
class TimedTransport final : public dist::Transport {
 public:
  TimedTransport(dist::Transport& inner, StageLog& log)
      : inner_(inner), log_(log) {}

  void mark_checkpoint_start() { checkpoint_start_ = Clock::now(); }

  void send(const std::string& endpoint, const dist::Message& msg) override {
    const Clock::time_point start = close_pending_stages();
    inner_.send(endpoint, msg);
    log_.send.push_back(seconds_between(start, Clock::now()));
  }
  std::optional<dist::Message> try_receive(
      const std::string& endpoint) override {
    close_pending_stages();
    return inner_.try_receive(endpoint);
  }
  std::optional<dist::Message> receive(const std::string& endpoint,
                                       std::int64_t timeout_ms) override {
    const Clock::time_point start = close_pending_stages();
    std::optional<dist::Message> msg = inner_.receive(endpoint, timeout_ms);
    const Clock::time_point end = Clock::now();
    log_.recv_wait += seconds_between(start, end);
    if (msg && msg->type == dist::MessageType::kNoWork) {
      ++log_.no_work;
      backoff_start_ = end;
    }
    return msg;
  }
  void shutdown() override { inner_.shutdown(); }
  bool closed() const override { return inner_.closed(); }
  std::uint64_t frames_sent() const override { return inner_.frames_sent(); }
  std::uint64_t frames_dropped() const override {
    return inner_.frames_dropped();
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

 private:
  Clock::time_point close_pending_stages() {
    const Clock::time_point now = Clock::now();
    if (backoff_start_) {
      log_.backoff += seconds_between(*backoff_start_, now);
      backoff_start_.reset();
    }
    if (checkpoint_start_) {
      log_.checkpoint.push_back(seconds_between(*checkpoint_start_, now));
      checkpoint_start_.reset();
    }
    return now;
  }

  dist::Transport& inner_;
  StageLog& log_;
  std::optional<Clock::time_point> backoff_start_;
  std::optional<Clock::time_point> checkpoint_start_;
};

/// core::Algorithm::execute (execute_task in src/core/app.cpp) split into
/// its steps, each timed. Produces the same bytes: the iteration's bitwise
/// check would catch any drift.
dist::TaskExecutor timed_executor(StageLog& log) {
  return [&log](std::uint64_t task_id,
                const std::vector<std::uint8_t>& payload) {
    const Clock::time_point t0 = Clock::now();
    const core::TaskPayload task = core::TaskPayload::decode(payload);
    const mc::Kernel kernel(task.spec.kernel);
    const Clock::time_point t1 = Clock::now();
    const exec::ParallelKernelRunner runner(kernel);
    const mc::SimulationTally tally =
        runner.run(task.task_photons, task.spec.seed, task_id);
    const Clock::time_point t2 = Clock::now();
    util::ByteWriter writer;
    tally.serialize(writer);
    std::vector<std::uint8_t> bytes = writer.take();
    const Clock::time_point t3 = Clock::now();
    log.decode.push_back(seconds_between(t0, t1));
    log.kernel.push_back(seconds_between(t1, t2));
    log.serialize.push_back(seconds_between(t2, t3));
    return bytes;
  };
}

struct TracedIteration {
  std::uint64_t tasks = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  StageLog server;
  StageLog workers;
};

TracedIteration run_traced(const Workload& workload, const Plan& plan,
                           const Paths& paths) {
  TracedIteration result;
  remove_run_files(paths);

  // phodis_server's bring-up, as in tools/phodis_server.cpp.
  const core::MonteCarloApp app(plan.spec);
  const std::vector<dist::TaskRecord> tasks =
      app.build_tasks(workload.chunk_photons(), 1);
  result.tasks = tasks.size();
  dist::DataManager manager(kServerLeaseS);
  core::IncrementalTallyMerger merger(app.spec());
  manager.set_result_sink([&merger, &result](std::uint64_t task_id,
                                             std::vector<std::uint8_t> bytes) {
    const Clock::time_point start = Clock::now();
    merger.fold(task_id, std::move(bytes));
    result.server.merge.push_back(seconds_between(start, Clock::now()));
  });
  for (const dist::TaskRecord& task : tasks) {
    manager.add_task(task.task_id, task.payload);
  }

  net::Server server(net::Address::unix_path(paths.socket));
  const net::Address address = server.local_address();
  std::atomic<bool> abort{false};
  std::vector<StageLog> worker_logs(kWorkers);
  std::vector<char> saw_shutdown(kWorkers, 0);
  std::vector<std::uint64_t> worker_bytes(kWorkers, 0);
  std::vector<std::uint64_t> worker_frames(kWorkers, 0);
  std::vector<std::thread> workers;
  const auto join_workers = [&] {
    for (std::thread& t : workers) t.join();
    workers.clear();
  };
  const auto worker_main = [&](std::size_t slot) {
    StageLog& log = worker_logs[slot];
    const Clock::time_point start = Clock::now();
    try {
      net::Client client(address, "w" + std::to_string(slot));
      TimedTransport timed(client, log);
      dist::WorkerLoopOptions options;
      options.name = client.name();
      options.keep_running = [&abort] { return !abort.load(); };
      const dist::WorkerLoopOutcome outcome =
          dist::run_worker_loop(timed, timed_executor(log), options);
      saw_shutdown[slot] = outcome.saw_shutdown ? 1 : 0;
      worker_bytes[slot] = client.bytes_sent();
      worker_frames[slot] = client.frames_sent();
    } catch (const std::exception& error) {
      std::cerr << "worker " << slot << ": " << error.what() << "\n";
    }
    log.wall = seconds_between(start, Clock::now());
  };

  std::vector<std::uint8_t> merged;
  try {
    for (std::size_t slot = 0; slot < kWorkers; ++slot) {
      workers.emplace_back(worker_main, slot);
    }
    const Clock::time_point run_start = Clock::now();
    TimedTransport timed_server(server, result.server);
    dist::ServerLoopOptions options;
    options.checkpoint_path = paths.checkpoint;
    options.checkpoint_every = kServerCheckpointEvery;
    options.checkpoint_state = [&]() -> std::vector<std::uint8_t> {
      timed_server.mark_checkpoint_start();
      return merger.state_bytes();
    };
    dist::run_server_loop(timed_server, manager, options);
    result.server.wall = seconds_between(run_start, Clock::now());
    merged = merger.merged().to_bytes();
  } catch (...) {
    abort.store(true);
    server.shutdown();
    join_workers();
    remove_run_files(paths);
    throw;
  }
  join_workers();
  result.wire_bytes = server.bytes_sent();
  result.frames = server.frames_sent();
  server.shutdown();
  remove_run_files(paths);

  bool all_shut_down = true;
  for (std::size_t slot = 0; slot < kWorkers; ++slot) {
    result.workers.absorb(worker_logs[slot]);
    result.wire_bytes += worker_bytes[slot];
    result.frames += worker_frames[slot];
    all_shut_down = all_shut_down && saw_shutdown[slot];
  }
  if (!all_shut_down) throw std::runtime_error("a worker missed Shutdown");
  if (merged != plan.reference) {
    throw std::runtime_error("merged tally differs from the reference");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

std::vector<Metric> end_to_end_metrics(const std::vector<IterationTimes>& runs) {
  std::vector<double> setup, ttr, cpu;
  for (const IterationTimes& r : runs) {
    setup.push_back(r.setup_s);
    ttr.push_back(r.time_to_result_s);
    cpu.push_back(r.cpu_s);
  }
  return {
      {"time_to_result_ms", median(ttr) * 1e3, "ms"},
      {"cluster_cpu_ms", median(cpu) * 1e3, "ms"},
      {"setup_s", median(setup), "s"},
  };
}

/// Per-layer metrics; `gate_ok` is cleared (and the gap named on stderr)
/// when the stages cover less than kAttributionFloor of a wall time.
std::vector<Metric> per_layer_metrics(const std::vector<TracedIteration>& runs,
                                      bool& gate_ok) {
  StageLog server, workers;
  double wire_bytes = 0.0, frames = 0.0, tasks = 0.0;
  for (const TracedIteration& r : runs) {
    server.absorb(r.server);
    workers.absorb(r.workers);
    wire_bytes += static_cast<double>(r.wire_bytes);
    frames += static_cast<double>(r.frames);
    tasks += static_cast<double>(r.tasks);
  }
  const double n_runs = static_cast<double>(runs.size());
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const double worker_attributed =
      sum(workers.decode) + sum(workers.kernel) + sum(workers.serialize) +
      sum(workers.send) + workers.recv_wait + workers.backoff;
  // The merge runs inside the loop, through the DataManager's result sink.
  const double server_attributed = server.recv_wait + sum(server.send) +
                                   sum(server.checkpoint) + sum(server.merge);
  const double worker_covered = share(worker_attributed, workers.wall);
  const double server_covered = share(server_attributed, server.wall);
  if (worker_covered < kAttributionFloor) {
    std::cerr << "attribution gate: worker stages (decode, kernel, "
                 "serialize, send, receive wait, back-off) cover "
              << worker_covered * 100.0 << "% of worker wall time\n";
    gate_ok = false;
  }
  if (server_covered < kAttributionFloor) {
    std::cerr << "attribution gate: server stages (receive wait, send, "
                 "merge, checkpoint) cover "
              << server_covered * 100.0
              << "% of server loop wall time; the rest is the loop's own "
                 "dispatch and bookkeeping\n";
    gate_ok = false;
  }
  return {
      {"task_decode_us", median(workers.decode) * 1e6, "us"},
      {"kernel_run_us", median(workers.kernel) * 1e6, "us"},
      {"tally_serialize_us", median(workers.serialize) * 1e6, "us"},
      {"worker_send_us", median(workers.send) * 1e6, "us"},
      {"server_send_us", median(server.send) * 1e6, "us"},
      // A mean, not a median: most incremental folds only buffer a
      // result, and the fold that closes a gap merges several.
      {"server_merge_us", share(sum(server.merge), tasks) * 1e6, "us"},
      {"checkpoint_write_us", median(server.checkpoint) * 1e6, "us"},
      {"checkpoint_writes_per_run",
       share(static_cast<double>(server.checkpoint.size()), n_runs), "count"},
      {"worker_kernel_share", share(sum(workers.kernel), workers.wall),
       "ratio"},
      {"worker_idle_share",
       share(workers.recv_wait + workers.backoff, workers.wall), "ratio"},
      {"worker_unattributed_share", 1.0 - worker_covered, "ratio"},
      {"server_recv_wait_share", share(server.recv_wait, server.wall),
       "ratio"},
      {"server_loop_self_share", 1.0 - server_covered, "ratio"},
      {"wire_bytes_per_task", share(wire_bytes, tasks), "B"},
      {"frames_per_task", share(frames, tasks), "count"},
      {"no_work_replies_per_run",
       share(static_cast<double>(workers.no_work), n_runs), "count"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv);
    const Workload workload = make_workload(args.get("workload", ""));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double budget_s = args.get_double("seconds", 10.0);
    const bool trace = args.get_int("trace", 0) != 0;
    const std::string work_dir = args.get("work-dir", ".");
    std::filesystem::create_directories(work_dir);
    const std::string tag = std::to_string(::getpid());
    const Paths paths{args.get("server-bin", ""), args.get("worker-bin", ""),
                      work_dir + "/cluster-" + tag + ".sock",
                      work_dir + "/checkpoint-" + tag + ".bin"};
    if (!trace && (paths.server_bin.empty() || paths.worker_bin.empty())) {
      throw std::invalid_argument("--server-bin and --worker-bin are required");
    }

    // The iterations cycle through kPlans task plans that differ only in
    // their RNG seed, so a median over iterations does not hinge on how
    // much work one seed's photons happen to need. Each plan's reference
    // is the same plan run on an in-process pool; computing them also
    // warms the page cache and the kernel's code paths before timing.
    // Plan seeds stay below 2^31: phodis_server parses --seed as a signed
    // integer.
    std::vector<Plan> plans;
    for (std::uint64_t k = 0; k < kPlans; ++k) {
      Plan plan;
      plan.spec = server_spec(workload, util::mix64(seed, k) >> 33);
      const core::MonteCarloApp app(plan.spec);
      plan.tasks = app.build_tasks(workload.chunk_photons(), 1).size();
      const mc::SimulationTally tally =
          app.run_parallel(kWorkers, workload.chunk_photons());
      if (tally.photons_launched() != plan.spec.photons ||
          !(tally.diffuse_reflectance() > 0.0 &&
            tally.diffuse_reflectance() < 1.0)) {
        throw std::runtime_error("reference tally fails its sanity check");
      }
      plan.reference = tally.to_bytes();
      plans.push_back(std::move(plan));
    }

    std::vector<IterationTimes> timed_runs;
    std::vector<TracedIteration> traced_runs;
    const auto iterate = [&](const Plan& plan) {
      if (trace) {
        traced_runs.push_back(run_traced(workload, plan, paths));
      } else {
        timed_runs.push_back(run_processes(workload, plan, paths));
      }
    };
    iterate(plans[0]);  // warm-up, not reported
    timed_runs.clear();
    traced_runs.clear();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const Clock::time_point start = Clock::now();
    while ((attempted < kPlans ||
            seconds_between(start, Clock::now()) < budget_s) &&
           failed <= 3) {
      const std::size_t k = attempted++ % kPlans;
      try {
        iterate(plans[k]);
      } catch (const std::exception& error) {
        std::cerr << "iteration " << attempted << ": " << error.what() << "\n";
        ++failed;
      }
    }

    bool correct = failed == 0;
    const std::vector<Metric> metrics =
        trace ? per_layer_metrics(traced_runs, correct)
              : end_to_end_metrics(timed_runs);
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_cluster: " << error.what() << "\n";
    return 2;
  }
}
