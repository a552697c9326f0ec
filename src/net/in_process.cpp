#include "net/in_process.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"

namespace phodis::net {

InProcessRun run_in_process(
    std::size_t slots, const dist::FaultSpec& faults,
    const dist::TaskExecutor& executor,
    const dist::WorkerLoopOptions& worker_options,
    const std::function<void(dist::Transport& server)>& serve) {
  Server server(Address::tcp("127.0.0.1", 0), faults);
  const dist::SlotTransportFactory make_client =
      slot_clients(server.local_address(), faults, slots);

  // Every slot's client, kept to be shut down and counted. A client made
  // after the run has ended (a plan with no tasks left ends at once) is
  // shut down as it is made.
  std::mutex clients_mutex;
  std::vector<std::shared_ptr<dist::Transport>> clients;
  bool run_over = false;
  const dist::SlotTransportFactory keep_client =
      [&](std::size_t slot, const std::string& name) {
        std::shared_ptr<dist::Transport> client = make_client(slot, name);
        std::lock_guard<std::mutex> lock(clients_mutex);
        if (run_over) client->shutdown();
        clients.push_back(client);
        return client;
      };

  InProcessRun run;
  std::exception_ptr fleet_error;
  std::thread fleet([&] {
    try {
      run.fleet =
          dist::run_worker_slots(slots, keep_client, executor, worker_options);
    } catch (...) {
      fleet_error = std::current_exception();
      server.shutdown();
    }
  });
  std::exception_ptr serve_error;
  try {
    serve(server);
  } catch (...) {
    serve_error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(clients_mutex);
    run_over = true;
    for (const std::shared_ptr<dist::Transport>& client : clients) {
      client->shutdown();
    }
  }
  fleet.join();
  if (fleet_error) std::rethrow_exception(fleet_error);
  if (serve_error) std::rethrow_exception(serve_error);

  run.frames_sent = server.frames_sent();
  run.frames_dropped = server.frames_dropped();
  run.bytes_sent = server.bytes_sent();
  for (const std::shared_ptr<dist::Transport>& client : clients) {
    run.frames_sent += client->frames_sent();
    run.frames_dropped += client->frames_dropped();
    run.bytes_sent += client->bytes_sent();
  }
  return run;
}

}  // namespace phodis::net
