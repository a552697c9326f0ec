#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace phodis::obs {

namespace {

/// Canonical label order: sorted by key (ties by value, though duplicate
/// keys are rejected at registration).
Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i) {
    if (labels[i].first == labels[i - 1].first) {
      throw std::invalid_argument("obs: duplicate label key '" +
                                  labels[i].first + "'");
    }
  }
  return labels;
}

std::string instance_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) key += ',';
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

/// Shortest round-trip double formatting (printf %.17g is always exact
/// for doubles; trim to %g when it round-trips, for readable JSON).
std::string format_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  double back = 0.0;
  if (std::sscanf(buf, "%lf", &back) == 1 && back == v) return buf;
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "obs::Histogram: bounds must be strictly ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double value, std::uint64_t n) noexcept {
  std::size_t bucket = bounds_.size();  // +inf
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(n, std::memory_order_relaxed);
  observations_.fetch_add(n, std::memory_order_relaxed);
  const double added = value * static_cast<double>(n);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + added,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> Histogram::latency_bounds_s() {
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4,
          5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,
          0.2,  0.5,  1.0,  2.0,  5.0,  10.0};
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

std::string MetricSample::key() const { return instance_key(name, labels); }

void Snapshot::fold(MetricSample sample) {
  const std::string key = sample.key();
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), key,
      [](const MetricSample& s, const std::string& k) { return s.key() < k; });
  if (it == samples.end() || it->key() != key) {
    samples.insert(it, std::move(sample));
    return;
  }
  if (it->kind != sample.kind) {
    throw std::invalid_argument("obs::Snapshot: kind mismatch merging '" +
                                key + "'");
  }
  switch (sample.kind) {
    case MetricKind::kCounter:
      it->counter += sample.counter;
      break;
    case MetricKind::kGauge:
      it->gauge += sample.gauge;
      break;
    case MetricKind::kHistogram:
      if (it->bounds != sample.bounds) {
        throw std::invalid_argument(
            "obs::Snapshot: histogram bound mismatch merging '" + key + "'");
      }
      for (std::size_t i = 0; i < it->bucket_counts.size(); ++i) {
        it->bucket_counts[i] += sample.bucket_counts[i];
      }
      it->observations += sample.observations;
      it->sum += sample.sum;
      break;
  }
}

void Snapshot::merge(const Snapshot& other) {
  for (const MetricSample& sample : other.samples) fold(sample);
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"phodis_metrics_version\": 1,\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    out += "    {\"name\": \"";
    append_json_escaped(out, s.name);
    out += "\", \"labels\": {";
    for (std::size_t l = 0; l < s.labels.size(); ++l) {
      if (l > 0) out += ", ";
      out += '"';
      append_json_escaped(out, s.labels[l].first);
      out += "\": \"";
      append_json_escaped(out, s.labels[l].second);
      out += '"';
    }
    out += "}, \"kind\": \"" + to_string(s.kind) + "\", ";
    switch (s.kind) {
      case MetricKind::kCounter:
        out += "\"value\": " + std::to_string(s.counter);
        break;
      case MetricKind::kGauge:
        out += "\"value\": " + format_f64(s.gauge);
        break;
      case MetricKind::kHistogram: {
        out += "\"bounds\": [";
        for (std::size_t b = 0; b < s.bounds.size(); ++b) {
          if (b > 0) out += ", ";
          out += format_f64(s.bounds[b]);
        }
        out += "], \"bucket_counts\": [";
        for (std::size_t b = 0; b < s.bucket_counts.size(); ++b) {
          if (b > 0) out += ", ";
          out += std::to_string(s.bucket_counts[b]);
        }
        out += "], \"observations\": " + std::to_string(s.observations) +
               ", \"sum\": " + format_f64(s.sum);
        break;
      }
    }
    out += '}';
    if (i + 1 < samples.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::vector<std::uint8_t> Snapshot::encode() const {
  util::ByteWriter writer;
  writer.u64(samples.size());
  for (const MetricSample& s : samples) {
    writer.str(s.name);
    writer.u64(s.labels.size());
    for (const auto& [k, v] : s.labels) {
      writer.str(k);
      writer.str(v);
    }
    writer.u8(static_cast<std::uint8_t>(s.kind));
    switch (s.kind) {
      case MetricKind::kCounter:
        writer.u64(s.counter);
        break;
      case MetricKind::kGauge:
        writer.f64(s.gauge);
        break;
      case MetricKind::kHistogram:
        writer.f64_vec(s.bounds);
        writer.u64(s.bucket_counts.size());
        for (const std::uint64_t c : s.bucket_counts) writer.u64(c);
        writer.u64(s.observations);
        writer.f64(s.sum);
        break;
    }
  }
  return writer.take();
}

Snapshot Snapshot::decode(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader reader(bytes);
  Snapshot snapshot;
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    MetricSample s;
    s.name = reader.str();
    const std::uint64_t label_count = reader.u64();
    for (std::uint64_t l = 0; l < label_count; ++l) {
      std::string key = reader.str();
      std::string value = reader.str();
      s.labels.emplace_back(std::move(key), std::move(value));
    }
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(MetricKind::kHistogram)) {
      throw std::invalid_argument("obs::Snapshot: unknown metric kind " +
                                  std::to_string(kind));
    }
    s.kind = static_cast<MetricKind>(kind);
    switch (s.kind) {
      case MetricKind::kCounter:
        s.counter = reader.u64();
        break;
      case MetricKind::kGauge:
        s.gauge = reader.f64();
        break;
      case MetricKind::kHistogram: {
        s.bounds = reader.f64_vec();
        const std::uint64_t buckets = reader.u64();
        if (buckets != s.bounds.size() + 1) {
          throw std::invalid_argument(
              "obs::Snapshot: histogram bucket/bound count mismatch");
        }
        s.bucket_counts.reserve(buckets);
        for (std::uint64_t b = 0; b < buckets; ++b) {
          s.bucket_counts.push_back(reader.u64());
        }
        s.observations = reader.u64();
        s.sum = reader.f64();
        break;
      }
    }
    // fold() (rather than push_back) keeps the invariant even for frames
    // produced by a hostile or buggy peer: out-of-order or duplicate
    // samples land sorted and combined.
    snapshot.fold(std::move(s));
  }
  if (!reader.exhausted()) {
    throw std::length_error("obs::Snapshot: trailing bytes");
  }
  return snapshot;
}

std::uint64_t Snapshot::counter_value(const std::string& name,
                                      const Labels& labels) const {
  const std::string key = instance_key(name, canonical(labels));
  for (const MetricSample& s : samples) {
    if (s.key() == key && s.kind == MetricKind::kCounter) return s.counter;
  }
  return 0;
}

void write_metrics_json(const Snapshot& snapshot, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << snapshot.to_json();
  if (!out) {
    throw std::runtime_error("obs: cannot write metrics JSON to " + path);
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Entry& Registry::find_or_create(const std::string& name,
                                          const Labels& labels,
                                          MetricKind kind) {
  const Labels sorted = canonical(labels);
  const std::string key = instance_key(name, sorted);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("obs::Registry: '" + key +
                                  "' already registered as " +
                                  to_string(it->second.kind));
    }
    return it->second;
  }
  Entry entry;
  entry.name = name;
  entry.labels = sorted;
  entry.kind = kind;
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, labels, MetricKind::kCounter);
  if (!entry.counter) entry.counter.reset(new Counter());
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, labels, MetricKind::kGauge);
  if (!entry.gauge) entry.gauge.reset(new Gauge());
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, labels, MetricKind::kHistogram);
  if (!entry.histogram) {
    entry.histogram.reset(new Histogram(std::move(bounds)));
  } else if (entry.histogram->bounds() != bounds) {
    throw std::invalid_argument("obs::Registry: histogram '" + name +
                                "' re-registered with different bounds");
  }
  return *entry.histogram;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snapshot;
  snapshot.samples.reserve(entries_.size());
  // entries_ is a std::map keyed by MetricSample::key(), so this walk is
  // already in exposition order.
  for (const auto& [key, entry] : entries_) {
    MetricSample s;
    s.name = entry.name;
    s.labels = entry.labels;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        s.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        s.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        s.bounds = entry.histogram->bounds();
        s.bucket_counts = entry.histogram->bucket_counts();
        s.observations = entry.histogram->observations();
        s.sum = entry.histogram->sum();
        break;
    }
    snapshot.samples.push_back(std::move(s));
  }
  return snapshot;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

}  // namespace phodis::obs
