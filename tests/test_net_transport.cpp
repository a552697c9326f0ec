// End-to-end tests of the socket transports: the server/worker protocol
// loops over real TCP and Unix-domain sockets inside one process, with
// fault injection, worker death, server restart (client reconnect),
// multi-slot workers (run_worker_slots), and the bitwise-reproducibility
// cross-check against a serial MC run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/app.hpp"
#include "core/merger.hpp"
#include "dist/runtime.hpp"
#include "mc/presets.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace phodis::net {
namespace {

/// Executor that doubles every payload byte (deterministic, cheap).
std::vector<std::uint8_t> doubler(std::uint64_t /*task_id*/,
                                  const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out = payload;
  for (auto& b : out) b = static_cast<std::uint8_t>(b * 2);
  return out;
}

std::vector<dist::TaskRecord> make_tasks(std::size_t count) {
  std::vector<dist::TaskRecord> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back(dist::TaskRecord{
        i, {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i + 1)}});
  }
  return tasks;
}

/// A short unique Unix-socket path (sockaddr_un caps paths at ~107
/// chars, so gtest's deep TempDir is unusable).
std::string unique_socket_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/phodis_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

void add_tasks(dist::DataManager& manager,
               const std::vector<dist::TaskRecord>& tasks) {
  for (const auto& task : tasks) manager.add_task(task.task_id, task.payload);
}

using Results = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/// Make `results` collect `manager`'s first-accepted results by task id.
void collect_results(dist::DataManager& manager, Results& results) {
  manager.set_result_sink(
      [&results](std::uint64_t task_id, std::vector<std::uint8_t> bytes) {
        results.emplace(task_id, std::move(bytes));
      });
}

/// Make `merger` fold `manager`'s first-accepted results, as
/// core::PlanServer does.
void fold_results(dist::DataManager& manager,
                  core::IncrementalTallyMerger& merger) {
  manager.set_result_sink(
      [&merger](std::uint64_t task_id, std::vector<std::uint8_t> bytes) {
        merger.fold(task_id, std::move(bytes));
      });
}

void expect_doubled_results(const Results& results,
                            const std::vector<dist::TaskRecord>& tasks) {
  ASSERT_EQ(results.size(), tasks.size());
  for (const auto& task : tasks) {
    const auto& result = results.at(task.task_id);
    ASSERT_EQ(result.size(), task.payload.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i], static_cast<std::uint8_t>(task.payload[i] * 2));
    }
  }
}

/// Run `worker_count` Client-backed workers against `server` until the
/// server loop finishes. Returns per-worker outcomes.
std::vector<dist::WorkerLoopOutcome> run_cluster(
    Server& server, dist::DataManager& manager, std::size_t worker_count,
    const dist::FaultSpec& worker_faults = {}) {
  std::vector<dist::WorkerLoopOutcome> outcomes(worker_count);
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers.emplace_back([&server, &outcomes, &worker_faults, i] {
      dist::FaultSpec faults = worker_faults;
      faults.seed = worker_faults.seed + i;  // distinct drop streams
      std::string name = "w";
      name += std::to_string(i);
      // A tight reconnect budget: a worker whose Shutdown frame was
      // dropped should notice the dead server in milliseconds, not
      // ride out the production backoff schedule.
      ReconnectPolicy impatient;
      impatient.max_attempts = 5;
      impatient.initial_backoff_ms = 1;
      impatient.max_backoff_ms = 10;
      Client client(server.local_address(), name, faults, impatient);
      dist::WorkerLoopOptions options;
      options.name = client.name();
      outcomes[i] = dist::run_worker_loop(client, doubler, options);
    });
  }
  dist::run_server_loop(server, manager);
  server.shutdown();  // wake any worker that lost its Shutdown frame
  for (auto& worker : workers) worker.join();
  return outcomes;
}

TEST(SocketTransport, UdsClusterCompletesAllTasksExactlyOnce) {
  const auto tasks = make_tasks(40);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  Server server(Address::unix_path(unique_socket_path("uds")));
  const auto outcomes = run_cluster(server, manager, 3);
  expect_doubled_results(results, tasks);
  EXPECT_EQ(manager.stats().completions, 40u);
  std::size_t executed = 0;
  for (const auto& outcome : outcomes) executed += outcome.tasks_executed;
  EXPECT_GE(executed, 40u);  // >= because a lease can be served twice
}

TEST(SocketTransport, TcpClusterCompletesAllTasksExactlyOnce) {
  const auto tasks = make_tasks(24);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  Server server(Address::tcp("127.0.0.1", 0));  // ephemeral port
  ASSERT_GT(server.local_address().port, 0);
  run_cluster(server, manager, 2);
  expect_doubled_results(results, tasks);
  EXPECT_EQ(manager.stats().completions, 24u);
}

TEST(SocketTransport, SurvivesFrameDropsOnBothSides) {
  const auto tasks = make_tasks(30);
  dist::DataManager manager(0.2);  // fast lease recovery
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  dist::FaultSpec server_faults;
  server_faults.drop_probability = 0.10;
  server_faults.seed = 11;
  dist::FaultSpec worker_faults;
  worker_faults.drop_probability = 0.10;
  worker_faults.seed = 23;
  Server server(Address::unix_path(unique_socket_path("drops")),
                server_faults);
  run_cluster(server, manager, 3, worker_faults);
  expect_doubled_results(results, tasks);
  EXPECT_EQ(manager.stats().completions, 30u);
  EXPECT_GT(server.frames_dropped(), 0u);
}

TEST(SocketTransport, KilledWorkerLeaseExpiresAndAnotherFinishes) {
  const auto tasks = make_tasks(8);
  dist::DataManager manager(0.3);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  Server server(Address::unix_path(unique_socket_path("kill")));

  std::thread server_thread(
      [&] { dist::run_server_loop(server, manager); });

  {
    // A worker that takes an assignment and dies holding it.
    Client victim(server.local_address(), "victim");
    dist::Message request;
    request.type = dist::MessageType::kRequestWork;
    request.sender = "victim";
    victim.send("server", request);
    const auto assignment = victim.receive("victim", 2000);
    ASSERT_TRUE(assignment.has_value());
    ASSERT_EQ(assignment->type, dist::MessageType::kAssignTask);
    victim.shutdown();  // SIGKILL stand-in: connection drops, no result
  }

  Client worker(server.local_address(), "w0");
  dist::WorkerLoopOptions options;
  options.name = "w0";
  const auto outcome = dist::run_worker_loop(worker, doubler, options);
  server_thread.join();
  server.shutdown();

  expect_doubled_results(results, tasks);
  EXPECT_EQ(manager.stats().completions, 8u);
  EXPECT_GE(manager.stats().lease_expirations, 1u);
  EXPECT_TRUE(outcome.saw_shutdown);
}

TEST(SocketTransport, WorkerDeathRenameStillReceivesOnTheSameLink) {
  // Death injection renames the worker to "name#N" mid-loop; the
  // client's inbox is per-link, not per-name, so the renamed worker
  // keeps receiving and the run still drains.
  const auto tasks = make_tasks(12);
  dist::DataManager manager(0.3);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  Server server(Address::unix_path(unique_socket_path("rename")));
  std::thread server_thread(
      [&] { dist::run_server_loop(server, manager); });

  Client client(server.local_address(), "mortal");
  dist::WorkerLoopOptions options;
  options.name = "mortal";
  options.death_probability = 0.4;
  options.death_seed = 7;
  const auto outcome = dist::run_worker_loop(client, doubler, options);
  server_thread.join();
  server.shutdown();

  expect_doubled_results(results, tasks);
  EXPECT_GT(outcome.deaths, 0u);
  EXPECT_TRUE(outcome.saw_shutdown);
  EXPECT_GE(manager.stats().lease_expirations, outcome.deaths);
}

TEST(SocketTransport, ClientReconnectsWhenServerAppearsLate) {
  const Address address = Address::unix_path(unique_socket_path("late"));
  const auto tasks = make_tasks(6);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);

  ReconnectPolicy patient;
  patient.max_attempts = 100;
  patient.initial_backoff_ms = 10;
  patient.max_backoff_ms = 50;
  dist::WorkerLoopOutcome outcome;
  std::thread worker_thread([&] {
    // Starts sending into the void; must reconnect once the server binds.
    Client client(address, "early-bird", {}, patient);
    dist::WorkerLoopOptions options;
    options.name = "early-bird";
    outcome = dist::run_worker_loop(client, doubler, options);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Server server(address);
  dist::run_server_loop(server, manager);
  server.shutdown();
  worker_thread.join();

  expect_doubled_results(results, tasks);
  EXPECT_TRUE(outcome.saw_shutdown);
}

TEST(SocketTransport, ClientGivesUpAfterReconnectBudget) {
  ReconnectPolicy impatient;
  impatient.max_attempts = 3;
  impatient.initial_backoff_ms = 1;
  impatient.max_backoff_ms = 2;
  Client client(Address::unix_path(unique_socket_path("nobody")),
                "orphan", {}, impatient);
  dist::WorkerLoopOptions options;
  options.name = "orphan";
  const auto outcome = dist::run_worker_loop(client, doubler, options);
  EXPECT_FALSE(outcome.saw_shutdown);
  EXPECT_EQ(outcome.tasks_executed, 0u);
  EXPECT_TRUE(client.closed());
}

TEST(SocketTransport, ServerSurvivesGarbageFrames) {
  const auto tasks = make_tasks(5);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  Server server(Address::unix_path(unique_socket_path("garbage")));

  {
    // A well-framed but undecodable body, then a torn frame.
    Socket vandal = Socket::connect(server.local_address());
    ASSERT_TRUE(write_frame(vandal, {0xFF, 0xFF, 0xFF}));
    const std::uint8_t torn[3] = {0xEE, 0x00, 0x00};
    ASSERT_TRUE(vandal.send_all(torn, sizeof torn));
  }

  run_cluster(server, manager, 2);
  expect_doubled_results(results, tasks);
  EXPECT_EQ(manager.stats().completions, 5u);
}

std::uint64_t server_torn_frames() {
  return obs::registry()
      .counter("net_torn_frames_total", {{"side", "server"}})
      .value();
}

/// Poll `done` every millisecond for up to five seconds.
bool eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 5'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(SocketTransport, TornFrameCountsPeersButNotTheServersOwnShutdown) {
  Server server(Address::unix_path(unique_socket_path("torn")));
  const std::uint64_t before = server_torn_frames();

  {
    // A peer that hangs up inside a length prefix tore the frame.
    Socket vandal = Socket::connect(server.local_address());
    const std::uint8_t torn[3] = {0xEE, 0x00, 0x00};
    ASSERT_TRUE(vandal.send_all(torn, sizeof torn));
  }
  ASSERT_TRUE(eventually([&] { return server_torn_frames() == before + 1; }));

  // A worker whose next frame is cut off because the server shuts down
  // (the post-Shutdown MetricsSnapshot race) was closed cleanly.
  Socket worker = Socket::connect(server.local_address());
  dist::Message hello;
  hello.sender = "late";
  ASSERT_TRUE(write_frame(worker, hello.encode()));
  ASSERT_TRUE(eventually([&] {
    const std::vector<std::string> names = server.connected_endpoints();
    return std::find(names.begin(), names.end(), "late") != names.end();
  }));
  const std::uint8_t prefix[4] = {0x9A, 0x05, 0x00, 0x00};  // 1434 bytes
  ASSERT_TRUE(worker.send_all(prefix, sizeof prefix));
  // Let the reader consume the prefix and block on the missing body.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.shutdown();
  EXPECT_EQ(server_torn_frames(), before + 1);
}

/// shutdown() wakes the accept thread instead of waiting out a poll
/// period, so it takes a few milliseconds however long the server has
/// idled: 8 trials idle 3..17 ms, one more shuts down at once. Each call
/// records one observation of net_server_shutdown_seconds; the
/// destructor's second call records none. The bound is about twice the
/// slowest shutdown measured beside a `ctest -j4` (19.3 ms over 3600),
/// and below the 50 ms accept-poll period the wake-up replaced.
void expect_prompt_shutdowns(const std::function<Address()>& make_address) {
  constexpr double kBoundMs = 40.0;
  obs::Histogram& recorded = obs::registry().histogram(
      "net_server_shutdown_seconds", obs::Histogram::latency_bounds_s());
  const auto timed_shutdown = [&](int idle_ms) {
    const std::uint64_t before = recorded.observations();
    {
      Server server(make_address());
      std::this_thread::sleep_for(std::chrono::milliseconds(idle_ms));
      const util::Stopwatch clock;
      server.shutdown();
      EXPECT_LT(clock.milliseconds(), kBoundMs)
          << "shutdown after idling " << idle_ms << " ms";
    }
    EXPECT_EQ(recorded.observations(), before + 1);
  };
  for (int trial = 0; trial < 8; ++trial) timed_shutdown(3 + 2 * trial);
  timed_shutdown(0);
}

TEST(ServerShutdown, UdsWakesTheAcceptThread) {
  expect_prompt_shutdowns(
      [] { return Address::unix_path(unique_socket_path("wake")); });
}

TEST(ServerShutdown, TcpWakesTheAcceptThread) {
  expect_prompt_shutdowns([] { return Address::tcp("127.0.0.1", 0); });
}

/// A plan on phodis_server's medium (semi-infinite grey matter), seed 11.
core::SimulationSpec grey_matter_spec(std::uint64_t photons) {
  core::SimulationSpec spec;
  spec.kernel.medium = mc::homogeneous_grey_matter();
  spec.photons = photons;
  spec.seed = 11;
  return spec;
}

TEST(SocketTransport, MonteCarloTallyMatchesSerialBitwise) {
  // The acceptance invariant, in-process: a socket-transport cluster run
  // of the real MC workload reproduces the serial tally bitwise.
  const core::MonteCarloApp app(grey_matter_spec(20'000));
  constexpr std::uint64_t kChunk = 4'000;

  const auto tasks = app.build_tasks(kChunk, 1);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  core::IncrementalTallyMerger merger(app.spec());
  fold_results(manager, merger);

  Server server(Address::unix_path(unique_socket_path("mc")));
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&server, i] {
      std::string name = "mc-w";
      name += std::to_string(i);
      Client client(server.local_address(), name);
      dist::WorkerLoopOptions options;
      options.name = client.name();
      dist::run_worker_loop(client, core::Algorithm::execute, options);
    });
  }
  dist::run_server_loop(server, manager);
  server.shutdown();
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(merger.merged().to_bytes(), app.run_serial(kChunk).to_bytes());
}

/// `results` as a checkpoint sink-state blob, and back.
std::vector<std::uint8_t> encode_results(const Results& results) {
  util::ByteWriter writer;
  writer.u64(results.size());
  for (const auto& [task_id, bytes] : results) {
    writer.u64(task_id);
    writer.blob(bytes);
  }
  return writer.take();
}

Results decode_results(const std::vector<std::uint8_t>& blob) {
  util::ByteReader reader(blob);
  Results results;
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t task_id = reader.u64();
    results.emplace(task_id, reader.blob());
  }
  return results;
}

TEST(SocketTransport, ServerCheckpointResumesAcrossManagers) {
  // Kill-and-restart at the DataManager level: a second manager restored
  // from the first's checkpoint finishes the remaining work. The first
  // four results ride in the checkpoint's sink-state blob, so the
  // resumed run ends up with every result.
  namespace fs = std::filesystem;
  const std::string checkpoint =
      (fs::temp_directory_path() /
       ("phodis_ckpt_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const auto tasks = make_tasks(10);

  {
    dist::DataManager first(30.0);
    add_tasks(first, tasks);
    Results results;
    collect_results(first, results);
    double now = 0.0;
    for (int i = 0; i < 4; ++i) {
      const auto lease = first.lease_next("w0", now);
      ASSERT_TRUE(lease.has_value());
      ASSERT_TRUE(first.complete(lease->task_id, "w0", now,
                                 doubler(lease->task_id, lease->payload)));
    }
    first.checkpoint_to_file(checkpoint, encode_results(results));
  }

  dist::DataManager resumed(30.0);
  Results results;
  collect_results(resumed, results);
  const std::vector<std::uint8_t> sink_state =
      resumed.restore_from_file(checkpoint);
  results.merge(decode_results(sink_state));
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(resumed.completed_count(), 4u);
  EXPECT_EQ(resumed.pending_count(), 6u);

  Server server(Address::unix_path(unique_socket_path("resume")));
  std::thread worker_thread([&server] {
    Client client(server.local_address(), "w1");
    dist::WorkerLoopOptions options;
    options.name = "w1";
    dist::run_worker_loop(client, doubler, options);
  });
  dist::run_server_loop(server, resumed);
  server.shutdown();
  worker_thread.join();

  expect_doubled_results(results, tasks);
  fs::remove(checkpoint);
}

/// A server transport that records who each AssignTask was sent to —
/// the names the DataManager leased tasks to.
class LeaseRecorder final : public dist::Transport {
 public:
  explicit LeaseRecorder(dist::Transport& inner) : inner_(inner) {}

  /// Lease holders so far; read only after the server loop returned.
  const std::set<std::string>& leased_to() const { return leased_to_; }

  void send(const std::string& endpoint, const dist::Message& msg) override {
    if (msg.type == dist::MessageType::kAssignTask) leased_to_.insert(endpoint);
    inner_.send(endpoint, msg);
  }
  std::optional<dist::Message> try_receive(
      const std::string& endpoint) override {
    return inner_.try_receive(endpoint);
  }
  std::optional<dist::Message> receive(const std::string& endpoint,
                                       std::int64_t timeout_ms) override {
    return inner_.receive(endpoint, timeout_ms);
  }
  void shutdown() override { inner_.shutdown(); }
  bool closed() const override { return inner_.closed(); }
  std::uint64_t frames_sent() const override { return inner_.frames_sent(); }
  std::uint64_t frames_dropped() const override {
    return inner_.frames_dropped();
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

 private:
  dist::Transport& inner_;
  std::set<std::string> leased_to_;  // touched by the server loop only
};

/// A factory of plain Clients to `server`, logging each slot's name.
dist::SlotTransportFactory clients_to(const Server& server,
                                      std::vector<std::string>& names) {
  return [&server, &names](std::size_t slot, const std::string& name) {
    EXPECT_EQ(slot, names.size());  // one call per slot, in slot order
    names.push_back(name);
    return std::make_shared<Client>(server.local_address(), name);
  };
}

TEST(WorkerSlots, ThreeSlotsMatchSerialBitwiseAndShipOneSnapshot) {
  const core::MonteCarloApp app(grey_matter_spec(6'000));
  constexpr std::uint64_t kChunk = 500;
  const auto tasks = app.build_tasks(kChunk, 1);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  core::IncrementalTallyMerger merger(app.spec());
  fold_results(manager, merger);

  Server server(Address::unix_path(unique_socket_path("slots")));
  LeaseRecorder recorder(server);
  std::vector<std::string> names;
  dist::WorkerLoopOutcome outcome;
  std::thread worker_thread([&] {
    dist::WorkerLoopOptions options;
    options.name = "slot";
    outcome = dist::run_worker_slots(3, clients_to(server, names),
                                     core::Algorithm::execute, options,
                                     /*send_metrics_snapshot=*/true);
  });
  std::vector<std::string> snapshot_senders;
  dist::ServerLoopOptions server_options;
  server_options.metrics_snapshot_sink =
      [&snapshot_senders](const std::string& sender,
                          const std::vector<std::uint8_t>& /*payload*/) {
        snapshot_senders.push_back(sender);
      };
  server_options.metrics_drain_ms = 1'000;
  dist::run_server_loop(recorder, manager, server_options);
  server.shutdown();
  worker_thread.join();

  EXPECT_EQ(names, (std::vector<std::string>{"slot", "slot.1", "slot.2"}));
  EXPECT_EQ(recorder.leased_to(),
            (std::set<std::string>{"slot", "slot.1", "slot.2"}));
  EXPECT_EQ(manager.stats().completions, tasks.size());
  EXPECT_GE(outcome.tasks_executed, tasks.size());
  EXPECT_TRUE(outcome.saw_shutdown);
  EXPECT_EQ(outcome.final_name, "slot");
  // One process registry, so one snapshot, from whichever slot saw
  // Shutdown first.
  ASSERT_EQ(snapshot_senders.size(), 1u);
  EXPECT_EQ(recorder.leased_to().count(snapshot_senders.front()), 1u);
  EXPECT_EQ(obs::registry().gauge("dist_worker_slots").value(), 3.0);

  EXPECT_EQ(merger.merged().to_bytes(), app.run_serial(kChunk).to_bytes());
}

TEST(WorkerSlots, ShutdownOnOneSlotStopsTheOthers) {
  // Slot 0 reaches the server; slots 1 and 2 dial a socket nobody binds,
  // with a reconnect budget worth tens of seconds. Once slot 0 sees
  // Shutdown they must stop within a reply timeout or two, not spend it.
  const auto tasks = make_tasks(4);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  Server server(Address::unix_path(unique_socket_path("stop")));
  const Address nowhere = Address::unix_path(unique_socket_path("ghost"));
  ReconnectPolicy patient;
  patient.max_attempts = 1'000;
  patient.initial_backoff_ms = 20;
  patient.max_backoff_ms = 20;
  const dist::SlotTransportFactory factory =
      [&](std::size_t slot,
          const std::string& name) -> std::shared_ptr<dist::Transport> {
    if (slot == 0) return std::make_shared<Client>(server.local_address(), name);
    return std::make_shared<Client>(nowhere, name, dist::FaultSpec{}, patient);
  };

  using Clock = std::chrono::steady_clock;
  dist::WorkerLoopOutcome outcome;
  Clock::time_point worker_returned;
  std::thread worker_thread([&] {
    dist::WorkerLoopOptions options;
    options.name = "split";
    outcome = dist::run_worker_slots(3, factory, doubler, options);
    worker_returned = Clock::now();
  });
  dist::run_server_loop(server, manager);
  const Clock::time_point server_returned = Clock::now();
  worker_thread.join();
  server.shutdown();

  expect_doubled_results(results, tasks);
  EXPECT_TRUE(outcome.saw_shutdown);
  EXPECT_EQ(outcome.tasks_executed, tasks.size());
  EXPECT_LT(worker_returned - server_returned, std::chrono::seconds(2));
}

TEST(WorkerSlots, OneSlotIsTodaysSingleWorker) {
  const auto tasks = make_tasks(6);
  dist::DataManager manager(30.0);
  add_tasks(manager, tasks);
  Results results;
  collect_results(manager, results);
  Server server(Address::unix_path(unique_socket_path("solo")));
  LeaseRecorder recorder(server);
  std::vector<std::string> names;
  dist::WorkerLoopOutcome outcome;
  std::thread worker_thread([&] {
    dist::WorkerLoopOptions options;
    options.name = "solo";
    outcome = dist::run_worker_slots(1, clients_to(server, names), doubler,
                                     options);
  });
  dist::run_server_loop(recorder, manager);
  server.shutdown();
  worker_thread.join();

  expect_doubled_results(results, tasks);
  EXPECT_EQ(names, std::vector<std::string>{"solo"});
  EXPECT_EQ(recorder.leased_to(), std::set<std::string>{"solo"});
  EXPECT_EQ(outcome.final_name, "solo");
  EXPECT_TRUE(outcome.saw_shutdown);
  // A single slot keeps the configured fault seeds; more slots mix them.
  EXPECT_EQ(dist::slot_seed(2006, 0, 1), 2006u);
  EXPECT_EQ(dist::slot_seed(2006, 0, 2), util::mix64(2006, 0));
  EXPECT_NE(dist::slot_seed(2006, 0, 2), dist::slot_seed(2006, 1, 2));
}

}  // namespace
}  // namespace phodis::net
