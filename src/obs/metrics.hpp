// obs::Registry — named, labeled counters/gauges/histograms for every
// layer of the platform.
//
// The paper's argument is entirely about *where a cluster run spends its
// time* (scheduling, communication, the MC kernel); this subsystem makes
// those quantities first-class instead of inferred from stderr logs and
// bench CSVs. Design constraints, in order:
//
//  * The increment path is allocation-free and lock-free: callers acquire
//    a handle (Counter&/Gauge&/Histogram&) once — registration takes the
//    registry mutex and may allocate — and then mutate relaxed atomics.
//    Handles are stable for the registry's lifetime.
//  * Exposition is deterministically ordered: metrics live in a std::map
//    keyed by "name{k=v,...}" with labels sorted by key, so two snapshots
//    of equal state serialise byte-identically (the D2 lint rule's
//    ordered-domain discipline, applied to observability).
//  * Metrics are out-of-band of the bitwise contract: nothing here feeds
//    a tally, a seed, or a frame the protocol depends on. Workers ship
//    Snapshots to the server over a dedicated MetricsSnapshot message and
//    the server merges them into one cluster-wide report.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace phodis::obs {

/// Sorted (key, value) pairs; the identity of a metric instance is
/// (name, labels).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

std::string to_string(MetricKind kind);

/// Monotone event count. inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, resumed-task count).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Cumulative histogram over fixed upper bounds (Prometheus "le"
/// convention): counts_[i] counts observations <= bounds[i], with one
/// extra +inf bucket at the end. observe() is a linear scan over a
/// handful of bounds plus relaxed atomics — no allocation, no lock.
class Histogram {
 public:
  /// Record `n` observations of `value` at once (one bucket add, and
  /// value·n added to the sum).
  void observe(double value, std::uint64_t n = 1) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t observations() const noexcept {
    return observations_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Default latency bounds in seconds: 1us .. 10s, 1-2-5 per decade, so
  /// a stage of a few microseconds still lands in its own bucket.
  static std::vector<double> latency_bounds_s();

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;  ///< ascending upper edges, +inf implicit
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< size()+1
  std::atomic<std::uint64_t> observations_{0};
  std::atomic<double> sum_{0.0};
};

/// One metric instance frozen at snapshot time.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;                ///< kCounter
  double gauge = 0.0;                       ///< kGauge
  std::vector<double> bounds;               ///< kHistogram
  std::vector<std::uint64_t> bucket_counts; ///< size bounds.size()+1
  std::uint64_t observations = 0;
  double sum = 0.0;

  /// "name{k=v,...}" — the deterministic identity/sort key.
  std::string key() const;
};

/// A registry (or a merge of several) frozen into plain data: what goes
/// into --metrics-json files and MetricsSnapshot frames.
struct Snapshot {
  std::vector<MetricSample> samples;  ///< sorted by key()

  /// Insert or combine one sample, keeping `samples` sorted. Counters and
  /// histogram buckets add; gauges add (a merged gauge is a cluster
  /// total); kind or histogram-bound mismatches throw.
  void fold(MetricSample sample);

  /// Fold every sample of `other` into this snapshot.
  void merge(const Snapshot& other);

  /// Deterministic JSON: {"phodis_metrics_version":1,"metrics":[...]}
  /// with one metric object per line, sorted by key.
  std::string to_json() const;

  /// Wire form for the MetricsSnapshot protocol message.
  std::vector<std::uint8_t> encode() const;
  /// Throws std::out_of_range / std::invalid_argument on malformed input.
  static Snapshot decode(const std::vector<std::uint8_t>& bytes);

  /// Convenience for tests and report assertions: the counter's value, or
  /// 0 when absent.
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;
};

/// Write `snapshot.to_json()` to `path` (throws std::runtime_error on
/// I/O failure).
void write_metrics_json(const Snapshot& snapshot, const std::string& path);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Labels need not be sorted (they are canonicalised);
  /// re-registering an existing name+labels with a different kind (or
  /// different histogram bounds) throws std::invalid_argument. Returned
  /// references stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {});

  Snapshot snapshot() const;

  /// The process-wide registry every instrumentation point uses.
  static Registry& global();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    // Exactly one of these is set, per kind.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const Labels& labels,
                        MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< keyed by MetricSample::key()
};

/// Shorthand for Registry::global().
inline Registry& registry() { return Registry::global(); }

}  // namespace phodis::obs
