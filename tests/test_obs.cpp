// obs subsystem: registry semantics, deterministic exposition, wire
// round-trip, cluster merge, the trace recorder — and the tier-1 schema
// checks for --metrics-json / --trace output (a minimal JSON parser below
// validates shape, not just substrings).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs = phodis::obs;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser, just enough to validate the emitted documents.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("truncated JSON");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }
  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }
  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      JsonValue key = string_value();
      expect(':');
      v.object.emplace_back(key.string, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }
  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }
  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        switch (text_[pos_]) {
          case 'n':
            v.string += '\n';
            break;
          case 't':
            v.string += '\t';
            break;
          case 'u':
            pos_ += 4;  // keep validation simple: skip the code point
            v.string += '?';
            break;
          default:
            v.string += text_[pos_];
        }
      } else {
        v.string += text_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return v;
  }
  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }
  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) {
      throw std::runtime_error("bad literal");
    }
    pos_ += 4;
    return JsonValue{};
  }
  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CounterIncrementsAndSnapshots) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("frames_total", {{"side", "server"}});
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("frames_total", {{"side", "server"}}), 42u);
  EXPECT_EQ(snap.counter_value("frames_total", {{"side", "client"}}), 0u);
}

TEST(ObsRegistry, HandlesAreStableAndFindOrCreate) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x_total");
  obs::Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, LabelOrderDoesNotSplitInstances) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("t", {{"b", "2"}, {"a", "1"}});
  obs::Counter& b = reg.counter("t", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, DuplicateLabelKeyThrows) {
  obs::Registry reg;
  EXPECT_THROW(reg.counter("t", {{"a", "1"}, {"a", "2"}}),
               std::invalid_argument);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("clash");
  EXPECT_THROW(reg.gauge("clash"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("clash", {1.0}), std::invalid_argument);
}

TEST(ObsRegistry, GaugeSetAndAdd) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("queue_depth");
  g.set(5.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(ObsRegistry, HistogramBucketsFollowLeConvention) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat", {0.1, 1.0, 10.0});
  h.observe(0.05);  // <= 0.1
  h.observe(0.1);   // <= 0.1 (le is inclusive)
  h.observe(0.5);   // <= 1.0
  h.observe(100.0); // +inf bucket
  h.observe(10.0, 3);  // <= 10.0, three observations at once
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 3u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.observations(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.05 + 0.1 + 0.5 + 100.0 + 3 * 10.0);
}

TEST(ObsRegistry, HistogramBoundsMustAscend) {
  obs::Registry reg;
  EXPECT_THROW(reg.histogram("bad", {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("bad2", {2.0, 1.0}), std::invalid_argument);
  reg.histogram("ok", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("ok", {1.0, 3.0}), std::invalid_argument);
}

TEST(ObsRegistry, LatencyBoundsAreOneTwoFivePerDecade) {
  const std::vector<double> bounds = obs::Histogram::latency_bounds_s();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1e-6);
  EXPECT_EQ(bounds.back(), 10.0);
  EXPECT_EQ(std::adjacent_find(bounds.begin(), bounds.end(),
                               std::greater_equal<>()),
            bounds.end());  // strictly increasing
  EXPECT_NE(std::find(bounds.begin(), bounds.end(), 2e-6), bounds.end());
  EXPECT_NE(std::find(bounds.begin(), bounds.end(), 5e-5), bounds.end());
  EXPECT_EQ(bounds.size(), 22u);  // 7 decades x {1, 2, 5}, then 10 s
}

TEST(ObsRegistry, ConcurrentIncrementsLoseNothing) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("contended_total");
  obs::Histogram& h =
      reg.histogram("contended_lat", obs::Histogram::latency_bounds_s());
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kOps; ++i) {
        c.inc();
        h.observe(1e-4);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(h.observations(), static_cast<std::uint64_t>(kThreads) * kOps);
}

// ---------------------------------------------------------------------------
// Snapshot: determinism, wire round-trip, merge
// ---------------------------------------------------------------------------

TEST(ObsSnapshot, ExpositionIsDeterministicAcrossInsertionOrder) {
  obs::Registry a;
  a.counter("zeta_total").inc(1);
  a.counter("alpha_total", {{"k", "v"}}).inc(2);
  a.gauge("mid_gauge").set(3.5);

  obs::Registry b;
  b.gauge("mid_gauge").set(3.5);
  b.counter("alpha_total", {{"k", "v"}}).inc(2);
  b.counter("zeta_total").inc(1);

  EXPECT_EQ(a.snapshot().to_json(), b.snapshot().to_json());
  EXPECT_EQ(a.snapshot().encode(), b.snapshot().encode());
}

TEST(ObsSnapshot, EncodeDecodeRoundTrips) {
  obs::Registry reg;
  reg.counter("c_total", {{"side", "client"}}).inc(7);
  reg.gauge("g").set(-2.25);
  obs::Histogram& h = reg.histogram("h", {0.5, 5.0});
  h.observe(0.1);
  h.observe(50.0);

  const obs::Snapshot snap = reg.snapshot();
  const obs::Snapshot back = obs::Snapshot::decode(snap.encode());
  EXPECT_EQ(back.to_json(), snap.to_json());
  EXPECT_EQ(back.counter_value("c_total", {{"side", "client"}}), 7u);
}

TEST(ObsSnapshot, DecodeRejectsGarbage) {
  EXPECT_ANY_THROW(obs::Snapshot::decode({1, 2, 3}));
  std::vector<std::uint8_t> bytes = obs::Snapshot().encode();
  bytes.push_back(0);  // trailing byte
  EXPECT_ANY_THROW(obs::Snapshot::decode(bytes));
}

TEST(ObsSnapshot, MergeAddsCountersGaugesAndBuckets) {
  obs::Registry w1;
  w1.counter("tasks_total").inc(3);
  w1.histogram("lat", {1.0}).observe(0.5);

  obs::Registry w2;
  w2.counter("tasks_total").inc(4);
  w2.counter("only_w2_total").inc(9);
  w2.histogram("lat", {1.0}).observe(2.0);

  obs::Snapshot merged = w1.snapshot();
  merged.merge(w2.snapshot());
  EXPECT_EQ(merged.counter_value("tasks_total"), 7u);
  EXPECT_EQ(merged.counter_value("only_w2_total"), 9u);
  for (const obs::MetricSample& s : merged.samples) {
    if (s.name != "lat") continue;
    ASSERT_EQ(s.bucket_counts.size(), 2u);
    EXPECT_EQ(s.bucket_counts[0], 1u);  // 0.5
    EXPECT_EQ(s.bucket_counts[1], 1u);  // 2.0 -> +inf
    EXPECT_EQ(s.observations, 2u);
  }
}

TEST(ObsSnapshot, MergeRejectsKindAndBoundMismatches) {
  obs::Registry a;
  a.counter("m");
  obs::Registry b;
  b.gauge("m");
  obs::Snapshot snap = a.snapshot();
  EXPECT_THROW(snap.merge(b.snapshot()), std::invalid_argument);

  obs::Registry c;
  c.histogram("h", {1.0});
  obs::Registry d;
  d.histogram("h", {2.0});
  obs::Snapshot hsnap = c.snapshot();
  EXPECT_THROW(hsnap.merge(d.snapshot()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tier-1 schema validation: metrics JSON and trace-event JSON
// ---------------------------------------------------------------------------

TEST(ObsSchema, MetricsJsonShape) {
  obs::Registry reg;
  reg.counter("frames_total", {{"side", "server"}}).inc(5);
  reg.gauge("depth").set(2.0);
  reg.histogram("lat_seconds", obs::Histogram::latency_bounds_s())
      .observe(3e-4);

  const std::string path =
      testing::TempDir() + "phodis_test_metrics.json";
  obs::write_metrics_json(reg.snapshot(), path);
  const JsonValue doc = parse_json(read_file(path));
  std::remove(path.c_str());

  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  const JsonValue* version = doc.find("phodis_metrics_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, 1.0);
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->type, JsonValue::Type::kArray);
  ASSERT_EQ(metrics->array.size(), 3u);

  std::string previous_key;
  for (const JsonValue& m : metrics->array) {
    ASSERT_EQ(m.type, JsonValue::Type::kObject);
    const JsonValue* name = m.find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_EQ(name->type, JsonValue::Type::kString);
    EXPECT_LT(previous_key, name->string);  // sorted exposition
    previous_key = name->string;
    const JsonValue* labels = m.find("labels");
    ASSERT_NE(labels, nullptr);
    ASSERT_EQ(labels->type, JsonValue::Type::kObject);
    const JsonValue* kind = m.find("kind");
    ASSERT_NE(kind, nullptr);
    if (kind->string == "histogram") {
      const JsonValue* bounds = m.find("bounds");
      const JsonValue* buckets = m.find("bucket_counts");
      ASSERT_NE(bounds, nullptr);
      ASSERT_NE(buckets, nullptr);
      EXPECT_EQ(buckets->array.size(), bounds->array.size() + 1);
      EXPECT_NE(m.find("observations"), nullptr);
      EXPECT_NE(m.find("sum"), nullptr);
    } else {
      ASSERT_NE(m.find("value"), nullptr);
    }
  }
}

TEST(ObsSchema, TraceJsonMatchesTraceEventFormat) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.enable();
  {
    obs::ScopedSpan span("unit_span", "test");
    span.arg("task_id", "7");
  }
  { obs::ScopedSpan span("second_span", "test"); }
  recorder.disable();
  ASSERT_EQ(recorder.event_count(), 2u);

  const std::string path = testing::TempDir() + "phodis_test_trace.json";
  recorder.write_json(path);
  const JsonValue doc = parse_json(read_file(path));
  std::remove(path.c_str());

  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  ASSERT_EQ(events->array.size(), 2u);
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string, "X");  // complete events only
    for (const char* key : {"name", "cat", "ts", "dur", "pid", "tid"}) {
      ASSERT_NE(e.find(key), nullptr) << "missing " << key;
    }
    EXPECT_EQ(e.find("ts")->type, JsonValue::Type::kNumber);
    EXPECT_EQ(e.find("dur")->type, JsonValue::Type::kNumber);
    const JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->type, JsonValue::Type::kObject);
  }
}

TEST(ObsTrace, DisabledRecorderCostsNothingAndRecordsNothing) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.disable();
  const std::size_t before = recorder.event_count();
  { obs::ScopedSpan span("ghost", "test"); }
  EXPECT_EQ(recorder.event_count(), before);
}

TEST(ObsTrace, EnableResetsEpochAndBuffer) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.enable();
  { obs::ScopedSpan span("a", "test"); }
  EXPECT_EQ(recorder.event_count(), 1u);
  recorder.enable();  // re-enable clears
  EXPECT_EQ(recorder.event_count(), 0u);
  recorder.disable();
}

}  // namespace
