#include "exec/parallel.hpp"

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phodis::exec {

std::vector<std::uint64_t> shard_plan(std::uint64_t photons,
                                      std::uint64_t shard_photons) {
  if (shard_photons == 0) {
    throw std::invalid_argument("shard_plan: shard_photons must be > 0");
  }
  std::vector<std::uint64_t> shards(photons / shard_photons, shard_photons);
  if (const std::uint64_t remainder = photons % shard_photons;
      remainder != 0) {
    shards.push_back(remainder);
  }
  return shards;
}

std::vector<util::Xoshiro256pp> shard_streams(std::uint64_t base_seed,
                                              std::uint64_t task_id,
                                              std::size_t count) {
  std::vector<util::Xoshiro256pp> streams;
  streams.reserve(count);
  util::Xoshiro256pp stream = util::Xoshiro256pp::for_task(base_seed, task_id);
  for (std::size_t s = 0; s < count; ++s) {
    streams.push_back(stream);
    stream.jump();
  }
  return streams;
}

ParallelKernelRunner::ParallelKernelRunner(const mc::Kernel& kernel,
                                           ThreadPool* pool,
                                           std::uint64_t shard_photons)
    : kernel_(&kernel), pool_(pool), shard_photons_(shard_photons) {
  if (shard_photons_ == 0) {
    throw std::invalid_argument(
        "ParallelKernelRunner: shard_photons must be > 0");
  }
}

mc::SimulationTally ParallelKernelRunner::run(std::uint64_t photons,
                                              std::uint64_t base_seed,
                                              std::uint64_t task_id) const {
  const std::vector<std::uint64_t> shards =
      shard_plan(photons, shard_photons_);
  const std::vector<util::Xoshiro256pp> streams =
      shard_streams(base_seed, task_id, shards.size());
  std::vector<std::optional<mc::SimulationTally>> tallies(shards.size());

  // Identical per-shard arithmetic on either path: each shard fills a
  // private tally, and only the fold below combines them. The RNG and
  // tally are job-local copies: per-photon writes to the shared
  // `streams`/`tallies` vectors would false-share cache lines between
  // adjacent shards and erode the very speedup this subsystem exists
  // for (copying is bitwise-neutral — the post-run stream state is
  // never read).
  obs::Counter& shards_total = obs::registry().counter("exec_shards_total");
  const auto run_shard = [&](std::size_t s) {
    // The span and counter are out-of-band: the shard's RNG/tally work
    // is identical whether tracing is on or off. The kernel counts the
    // shard's photons (mc_kernel_photons_launched_total).
    obs::ScopedSpan span("shard", "exec");
    span.arg("task_id", std::to_string(task_id));
    span.arg("shard", std::to_string(s));
    span.arg("photons", std::to_string(shards[s]));
    util::Xoshiro256pp rng = streams[s];
    mc::SimulationTally tally = kernel_->make_tally();
    kernel_->run(shards[s], rng, tally);
    tallies[s].emplace(std::move(tally));
    shards_total.inc();
  };
  if (pool_ != nullptr && pool_->thread_count() > 1 && shards.size() > 1) {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      jobs.push_back([&run_shard, s] { run_shard(s); });
    }
    pool_->run(std::move(jobs));
  } else {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      run_shard(s);
    }
  }

  // The deterministic reduction: always in shard order, so the result
  // does not depend on which thread finished first.
  obs::ScopedSpan merge_span("shard_merge", "exec");
  merge_span.arg("task_id", std::to_string(task_id));
  merge_span.arg("shards", std::to_string(shards.size()));
  mc::SimulationTally merged = kernel_->make_tally();
  for (const std::optional<mc::SimulationTally>& tally : tallies) {
    merged.merge(*tally);
  }
  return merged;
}

}  // namespace phodis::exec
