// Deterministic pseudo-random number generation for the Monte Carlo kernel
// and the distributed platform.
//
// Requirements that shaped this module (the reproducibility contract,
// README.md "Reproducibility contract"):
//  * Every distributed task must own an independent, reproducible stream
//    derived from (base seed, task id), so that the merged simulation result
//    is identical no matter how tasks are scheduled across workers.
//  * The generator must be cheap (the kernel draws ~10 numbers per photon
//    interaction) and of high statistical quality (billions of draws).
//
// We implement SplitMix64 (seed expansion / stream derivation) and
// xoshiro256++ (bulk generation), both public-domain algorithms by
// Blackman & Vigna, re-derived here from their published constants.
#pragma once

#include <array>
#include <cstdint>

namespace phodis::util {

/// SplitMix64: a tiny 64-bit generator whose main role here is seed
/// expansion — turning one user seed into the four xoshiro words — and
/// hashing (seed, task id) pairs into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value; advances the state by the golden-ratio increment.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mix two 64-bit values into one, used to derive per-task seeds:
/// seed_task = mix64(base_seed, task_id). Collision-resistant enough for
/// fleet-scale task counts (birthday bound ~2^32 tasks).
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept;

/// xoshiro256++ 1.0. State must never be all-zero; seeding via SplitMix64
/// guarantees that with probability 1 - 2^-256.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion as recommended by the authors.
  explicit Xoshiro256pp(std::uint64_t seed = 0x853C49E6748FEA9BULL) noexcept;

  /// Construct the independent stream for a given task of a given run.
  static Xoshiro256pp for_task(std::uint64_t base_seed,
                               std::uint64_t task_id) noexcept;

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface, so <random> distributions accept it.
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Jump ahead 2^128 steps: partitions the period into non-overlapping
  /// sub-streams (an alternative to per-task SplitMix seeding; used by the
  /// thread-pool fallback path).
  void jump() noexcept;

  /// Jump ahead 2^192 steps. Orthogonal to jump(): shard s of a task is
  /// the task stream + s jump()s, and lane k *within* a shard is the
  /// shard stream + k long_jump()s — so lane k of shard s sits at offset
  /// s·2^128 + k·2^192, which no other (shard, lane) pair of the same
  /// task reaches while s stays below 2^64. Deriving lanes with jump()
  /// instead would alias lane k of shard s with the base of shard s+k.
  void long_jump() noexcept;

  /// Uniform double in [0, 1): 53 high bits scaled by 2^-53.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]: never returns 0, safe as log() argument
  /// when sampling exponential step lengths.
  double uniform_open0() noexcept { return 1.0 - uniform(); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal via Marsaglia polar method (no trig calls).
  double normal() noexcept;

  std::array<std::uint64_t, 4> state() const noexcept { return s_; }

  /// Rebuild a generator from a previously captured state() — the packet
  /// kernel stores lane streams as flat SoA words and materialises a
  /// generator only for launch sampling. The Marsaglia spare-normal cache
  /// is NOT part of the state and starts empty.
  static Xoshiro256pp from_state(
      const std::array<std::uint64_t, 4>& state) noexcept {
    Xoshiro256pp rng;
    rng.s_ = state;
    return rng;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace phodis::util
