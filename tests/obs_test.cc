// Tests for the src/obs telemetry subsystem: JSON fragment writer,
// metrics registry (counters/gauges/histograms), trace spans + Chrome
// trace export, and the structured event log.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace poisonrec {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// JSON helpers

TEST(JsonTest, EscapesStrings) {
  std::string out;
  obs::AppendJsonString(&out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonTest, NumbersRoundTripAndNonFiniteBecomeStrings) {
  std::string out;
  obs::AppendJsonNumber(&out, 0.5);
  EXPECT_EQ(out, "0.5");
  out.clear();
  obs::AppendJsonNumber(&out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "\"nan\"");
  out.clear();
  obs::AppendJsonNumber(&out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "\"inf\"");
  out.clear();
  obs::AppendJsonNumber(&out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "\"-inf\"");
  out.clear();
  obs::AppendJsonNumber(&out, std::uint64_t{18446744073709551615ull});
  EXPECT_EQ(out, "18446744073709551615");
}

TEST(JsonTest, NumberLiteralDetection) {
  EXPECT_TRUE(obs::IsJsonNumberLiteral("42"));
  EXPECT_TRUE(obs::IsJsonNumberLiteral("-1.5e3"));
  EXPECT_FALSE(obs::IsJsonNumberLiteral(""));
  EXPECT_FALSE(obs::IsJsonNumberLiteral("12abc"));
  EXPECT_FALSE(obs::IsJsonNumberLiteral("nan"));
  EXPECT_FALSE(obs::IsJsonNumberLiteral("inf"));
}

TEST(JsonTest, ObjectBuilderProducesOneObject) {
  const std::string json = std::move(obs::JsonObjectBuilder()
                                         .Str("type", "step")
                                         .Int("step", 7)
                                         .Num("reward", 0.25)
                                         .Bool("ok", true)
                                         .Raw("list", "[1,2]"))
                               .Finish();
  EXPECT_EQ(json,
            "{\"type\":\"step\",\"step\":7,\"reward\":0.25,"
            "\"ok\":true,\"list\":[1,2]}");
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsTest, CounterGaugeBasics) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("obs_test_counter_basic");
  EXPECT_EQ(reg.GetCounter("obs_test_counter_basic"), c);  // stable pointer
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);

  obs::Gauge* g = reg.GetGauge("obs_test_gauge_basic");
  g->Set(1.5);
  g->Add(-0.5);
  EXPECT_DOUBLE_EQ(g->Value(), 1.0);
}

TEST(MetricsTest, ConcurrentCounterIncrementsFromParallelForWorkers) {
  obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("obs_test_counter_parallel");
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  ParallelFor(kTasks, /*num_threads=*/8, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerTask; ++i) c->Increment();
  });
  EXPECT_EQ(c->Value(), kTasks * kPerTask);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  using H = obs::Histogram;
  // 1.0 == 2^0 sits in bucket -kMinExponent, whose bounds are [1, 2).
  const std::size_t one = static_cast<std::size_t>(-H::kMinExponent);
  EXPECT_EQ(H::BucketIndex(1.0), one);
  EXPECT_DOUBLE_EQ(H::BucketLowerBound(one), 1.0);
  EXPECT_DOUBLE_EQ(H::BucketUpperBound(one), 2.0);
  EXPECT_EQ(H::BucketIndex(1.999), one);
  EXPECT_EQ(H::BucketIndex(2.0), one + 1);  // boundary is exclusive above
  EXPECT_EQ(H::BucketIndex(0.5), one - 1);

  // Bucket 0 absorbs zero, negatives, NaN, and underflow.
  EXPECT_EQ(H::BucketIndex(0.0), 0u);
  EXPECT_EQ(H::BucketIndex(-3.0), 0u);
  EXPECT_EQ(H::BucketIndex(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(H::BucketIndex(std::ldexp(1.0, H::kMinExponent - 5)), 0u);
  EXPECT_DOUBLE_EQ(H::BucketLowerBound(0), 0.0);

  // The top bucket clamps overflow and +inf; its upper bound is +inf.
  EXPECT_EQ(H::BucketIndex(1e300), H::kNumBuckets - 1);
  EXPECT_EQ(H::BucketIndex(std::numeric_limits<double>::infinity()),
            H::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(H::BucketUpperBound(H::kNumBuckets - 1)));

  // Every interior boundary is exact: lower(i+1) == upper(i).
  for (std::size_t i = 1; i + 1 < H::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(H::BucketUpperBound(i), H::BucketLowerBound(i + 1));
  }
}

TEST(MetricsTest, HistogramSnapshot) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test_hist_snapshot");
  h->Observe(1.5);
  h->Observe(3.0);
  h->Observe(0.25);
  const obs::Histogram::Snapshot snap = h->TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 4.75);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_EQ(snap.buckets[obs::Histogram::BucketIndex(1.5)], 1u);
  EXPECT_EQ(snap.buckets[obs::Histogram::BucketIndex(3.0)], 1u);
  EXPECT_EQ(snap.buckets[obs::Histogram::BucketIndex(0.25)], 1u);
}

TEST(MetricsTest, SnapshotQuantilesAreExactOnKnownDistributions) {
  using H = obs::Histogram;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();

  // Two point masses in adjacent buckets: every quantile at or past the
  // first mass's cumulative weight lands exactly on the second value,
  // because interpolation bounds clamp to the observed [min, max].
  H* two = reg.GetHistogram("obs_test_quantile_two_masses");
  for (int i = 0; i < 10; ++i) two->Observe(1.0);
  for (int i = 0; i < 10; ++i) two->Observe(2.0);
  const H::Snapshot two_snap = two->TakeSnapshot();
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(two_snap, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(two_snap, 0.95), 2.0);
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(two_snap, 0.99), 2.0);
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(two_snap, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(two_snap, 0.0), 1.0);   // min
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(two_snap, 1.0), 2.0);   // max

  // A single repeated value is exact at every quantile: its bucket
  // collapses to [4, 4] after the min/max clamp.
  H* single = reg.GetHistogram("obs_test_quantile_single_value");
  for (int i = 0; i < 100; ++i) single->Observe(4.0);
  const H::Snapshot single_snap = single->TakeSnapshot();
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(single_snap, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(single_snap, 0.95), 4.0);
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(single_snap, 0.99), 4.0);

  // Two values sharing one log2 bucket ([8, 16)): interpolation runs
  // over the clamped range [8, 12], so p50 is its midpoint.
  H* shared = reg.GetHistogram("obs_test_quantile_shared_bucket");
  shared->Observe(8.0);
  shared->Observe(12.0);
  const H::Snapshot shared_snap = shared->TakeSnapshot();
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(shared_snap, 0.5), 10.0);

  // Empty histograms report 0 rather than an arbitrary bound.
  const H::Snapshot empty_snap =
      reg.GetHistogram("obs_test_quantile_empty")->TakeSnapshot();
  EXPECT_DOUBLE_EQ(H::SnapshotQuantile(empty_snap, 0.5), 0.0);
}

TEST(MetricsTest, SnapshotsCarryDerivedQuantilesAndTimestamps) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("obs_test_quantile_export");
  for (int i = 0; i < 100; ++i) h->Observe(4.0);

  const std::string json = reg.SnapshotJson();
  // Both clocks are exported: wall_unix (cross-process comparable; the
  // field fleet status aggregation trusts) and steady-clock uptime.
  EXPECT_EQ(json.rfind("{\"wall_unix\":", 0), 0u);
  EXPECT_NE(json.find("\"uptime_seconds\":"), std::string::npos);
  const double wall = std::atof(json.c_str() + json.find(':') + 1);
  EXPECT_GT(wall, 1.5e9);  // a plausible unix epoch, not an uptime
  EXPECT_NE(json.find("\"obs_test_quantile_export\":{\"count\":100,"),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\":4,\"p95\":4,\"p99\":4"), std::string::npos);
}

TEST(MetricsTest, SnapshotJsonContainsRegisteredMetrics) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_test_snap_counter")->Increment(5);
  reg.GetGauge("obs_test_snap_gauge")->Set(2.5);
  reg.GetHistogram("obs_test_snap_hist")->Observe(1.0);

  const std::string json = reg.SnapshotJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_snap_counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_snap_gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_snap_hist\":{\"count\":1"),
            std::string::npos);
  // Histogram bucket entries carry explicit bounds.
  EXPECT_NE(json.find("\"buckets\":[{\"ge\":1,\"lt\":2,\"count\":1}]"),
            std::string::npos);
}

TEST(MetricsTest, WriteJsonRoundTripsToFile) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_test_write_counter")->Increment();
  const std::string path = TempPath("poisonrec_obs_metrics.json");
  ASSERT_TRUE(reg.WriteJson(path));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  // The snapshot header timestamps (wall_unix / uptime_seconds) differ
  // between two captures; the metric payload after them must not.
  const auto payload = [](const std::string& json) {
    const std::size_t at = json.find("\"counters\":");
    return at == std::string::npos ? json : json.substr(at);
  };
  EXPECT_NE(contents.find("{\"wall_unix\":"), std::string::npos);
  EXPECT_EQ(payload(contents), payload(reg.SnapshotJson() + "\n"));
  std::remove(path.c_str());
  EXPECT_FALSE(reg.WriteJson("/nonexistent-dir/metrics.json"));
}

// ---------------------------------------------------------------------------
// Trace spans

TEST(TraceTest, DisabledTracingRecordsNothingButStillTimes) {
  obs::SetTracingEnabled(false);
  obs::ClearTrace();
  const std::size_t before = obs::TraceEventCount();
  obs::TraceSpan span("obs_test/disabled");
  // Burn a little time so the duration is observably positive.
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  const double seconds = span.Stop();
  EXPECT_GT(seconds, 0.0);
  EXPECT_DOUBLE_EQ(span.Stop(), seconds);  // idempotent
  EXPECT_EQ(obs::TraceEventCount(), before);
}

TEST(TraceTest, SpansRecordWhenEnabledAndNestInExport) {
  obs::SetTracingEnabled(true);
  obs::ClearTrace();
  // Put >1µs between the two span starts so their "ts" values differ
  // at the export's microsecond resolution and the ordering assertion
  // below cannot tie-break arbitrarily.
  const auto spin_us = [](int us) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  {
    POISONREC_TRACE_SPAN("obs_test/outer");
    spin_us(100);
    {
      POISONREC_TRACE_SPAN("obs_test/inner");
      spin_us(100);
    }
  }
  obs::SetTracingEnabled(false);
  EXPECT_EQ(obs::TraceEventCount(), 2u);

  const std::string json = obs::ChromeTraceJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  const std::size_t outer = json.find("\"obs_test/outer\"");
  const std::size_t inner = json.find("\"obs_test/inner\"");
  ASSERT_NE(outer, std::string::npos);
  ASSERT_NE(inner, std::string::npos);
  // Export order puts the enclosing span before its child (ts asc,
  // dur desc) so trace viewers nest them correctly.
  EXPECT_LT(outer, inner);
  // Complete events with microsecond timestamps on one process.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(TraceTest, SpanArgsExportAsCampaignArgsAndTruncate) {
  obs::SetTracingEnabled(true);
  obs::ClearTrace();
  {
    // Dynamic storage: arg only has to outlive Stop() — the ring keeps
    // a copy, unlike the name pointer.
    const std::string campaign = "camp-42";
    obs::TraceSpan span("obs_test/with_arg", campaign.c_str());
  }
  { obs::TraceSpan span("obs_test/without_arg"); }
  {
    const std::string oversized(obs::kTraceArgCapacity + 20, 'x');
    obs::TraceSpan span("obs_test/truncated_arg", oversized.c_str());
  }
  obs::SetTracingEnabled(false);

  const std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"args\":{\"campaign\":\"camp-42\"}"),
            std::string::npos);
  // The arg-less span's event object (no nested braces) carries no args.
  const std::size_t without = json.find("\"obs_test/without_arg\"");
  ASSERT_NE(without, std::string::npos);
  const std::string event =
      json.substr(without, json.find('}', without) - without);
  EXPECT_EQ(event.find("args"), std::string::npos);
  // Oversized args are truncated to kTraceArgCapacity - 1 bytes.
  EXPECT_NE(
      json.find("\"campaign\":\"" +
                std::string(obs::kTraceArgCapacity - 1, 'x') + "\""),
      std::string::npos);
  EXPECT_EQ(json.find(std::string(obs::kTraceArgCapacity, 'x')),
            std::string::npos);
  obs::ClearTrace();
}

// Extracts the integer value of `"key":` immediately following the event
// whose name match starts at `from`.
std::uint64_t FieldAfter(const std::string& json, std::size_t from,
                         const std::string& key) {
  const std::size_t pos = json.find("\"" + key + "\":", from);
  EXPECT_NE(pos, std::string::npos);
  return std::strtoull(json.c_str() + pos + key.size() + 3, nullptr, 10);
}

TEST(TraceTest, ThreadAttribution) {
  obs::SetTracingEnabled(true);
  obs::ClearTrace();
  // Raw threads (not the pool): each must land on its own tid.
  std::thread t1([] { POISONREC_TRACE_SPAN("obs_test/thread_a"); });
  t1.join();
  std::thread t2([] { POISONREC_TRACE_SPAN("obs_test/thread_b"); });
  t2.join();
  obs::SetTracingEnabled(false);

  // Rings outlive their threads: both spans must still be exported.
  const std::string json = obs::ChromeTraceJson();
  const std::size_t a = json.find("\"obs_test/thread_a\"");
  const std::size_t b = json.find("\"obs_test/thread_b\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_NE(FieldAfter(json, a, "tid"), FieldAfter(json, b, "tid"));
}

TEST(TraceTest, RingOverflowDropsOldestAndCounts) {
  obs::ClearTrace();
  obs::SetTraceRingCapacity(16);
  obs::SetTracingEnabled(true);
  // A fresh thread gets a ring with the new (tiny) capacity.
  std::thread t([] {
    for (int i = 0; i < 40; ++i) {
      POISONREC_TRACE_SPAN("obs_test/overflow");
    }
  });
  t.join();
  obs::SetTracingEnabled(false);
  EXPECT_GE(obs::TraceDroppedCount(), 24u);
  obs::SetTraceRingCapacity(std::size_t{1} << 16);
  obs::ClearTrace();
}

TEST(TraceTest, WriteChromeTraceToFile) {
  obs::SetTracingEnabled(true);
  obs::ClearTrace();
  { POISONREC_TRACE_SPAN("obs_test/file"); }
  obs::SetTracingEnabled(false);
  const std::string path = TempPath("poisonrec_obs_trace.json");
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"obs_test/file\""), std::string::npos);
  std::remove(path.c_str());
  obs::ClearTrace();
}

// ---------------------------------------------------------------------------
// Event log

TEST(EventLogTest, AppendWritesCompleteLinesAndCounts) {
  const std::string path = TempPath("poisonrec_obs_events.jsonl");
  obs::EventLog log;
  EXPECT_FALSE(log.Append("{}"));  // closed log drops events
  ASSERT_TRUE(log.Open(path));
  EXPECT_TRUE(log.is_open());
  EXPECT_TRUE(log.Append("{\"type\":\"a\"}"));
  EXPECT_TRUE(log.Append("{\"type\":\"b\"}"));
  EXPECT_EQ(log.lines_written(), 2u);
  log.Close();
  EXPECT_FALSE(log.is_open());

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"type\":\"a\"}");
  EXPECT_EQ(lines[1], "{\"type\":\"b\"}");
  std::remove(path.c_str());
}

TEST(EventLogTest, TruncateVersusAppendMode) {
  const std::string path = TempPath("poisonrec_obs_events_append.jsonl");
  {
    obs::EventLog log;
    ASSERT_TRUE(log.Open(path));
    log.Append("{\"n\":1}");
  }
  {
    obs::EventLog log;
    ASSERT_TRUE(log.Open(path, /*truncate=*/false));
    log.Append("{\"n\":2}");
  }
  EXPECT_EQ(ReadLines(path).size(), 2u);
  {
    obs::EventLog log;
    ASSERT_TRUE(log.Open(path, /*truncate=*/true));
    log.Append("{\"n\":3}");
  }
  EXPECT_EQ(ReadLines(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(EventLogTest, ConcurrentAppendsNeverInterleave) {
  const std::string path = TempPath("poisonrec_obs_events_mt.jsonl");
  obs::EventLog log;
  ASSERT_TRUE(log.Open(path));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string line = std::move(obs::JsonObjectBuilder()
                                               .Int("writer", t)
                                               .Int("seq", i)
                                               .Str("pad", std::string(64, 'x')))
                                     .Finish();
        ASSERT_TRUE(log.Append(line));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  log.Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  int per_writer[kThreads] = {};
  for (const std::string& line : lines) {
    // Atomicity: every line is one complete record, never two halves.
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
    ASSERT_EQ(line.find('{', 1), std::string::npos) << line;
    const std::size_t w = line.find("\"writer\":");
    ASSERT_NE(w, std::string::npos);
    const int writer = std::atoi(line.c_str() + w + 9);
    ASSERT_GE(writer, 0);
    ASSERT_LT(writer, kThreads);
    ++per_writer[writer];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_writer[t], kPerThread);
  std::remove(path.c_str());
}

TEST(EventLogTest, CrossInstanceAppendsNeverInterleaveMidLine) {
  // Two EventLog instances with independent fds on ONE path — the
  // in-process stand-in for two `poisonrec fleet` worker processes
  // appending to a shared journal. The per-instance mutex cannot help
  // across instances; only the O_APPEND single-write() contract keeps
  // lines whole.
  const std::string path = TempPath("poisonrec_obs_events_shared.jsonl");
  obs::EventLog a;
  obs::EventLog b;
  ASSERT_TRUE(a.Open(path, /*truncate=*/true));
  ASSERT_TRUE(b.Open(path, /*truncate=*/false));

  constexpr int kThreadsPerLog = 4;
  constexpr int kPerThread = 150;
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    obs::EventLog* log = w == 0 ? &a : &b;
    for (int t = 0; t < kThreadsPerLog; ++t) {
      threads.emplace_back([log, w, t] {
        for (int i = 0; i < kPerThread; ++i) {
          // Varying lengths so a torn write would misalign visibly.
          const std::string line =
              std::move(obs::JsonObjectBuilder()
                            .Int("log", w)
                            .Int("thread", t)
                            .Int("seq", i)
                            .Str("pad", std::string(32 + (i % 5) * 40, 'y')))
                  .Finish();
          ASSERT_TRUE(log->Append(line));
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  a.Close();
  b.Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(2) * kThreadsPerLog * kPerThread);
  int per_log[2] = {};
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
    ASSERT_EQ(line.find('{', 1), std::string::npos) << line;
    const std::size_t pos = line.find("\"log\":");
    ASSERT_NE(pos, std::string::npos);
    const int log_index = std::atoi(line.c_str() + pos + 6);
    ASSERT_GE(log_index, 0);
    ASSERT_LE(log_index, 1);
    ++per_log[log_index];
  }
  EXPECT_EQ(per_log[0], kThreadsPerLog * kPerThread);
  EXPECT_EQ(per_log[1], kThreadsPerLog * kPerThread);
  std::remove(path.c_str());
}

TEST(EventLogTest, OpenFailureLeavesLogClosed) {
  obs::EventLog log;
  EXPECT_FALSE(log.Open("/nonexistent-dir/events.jsonl"));
  EXPECT_FALSE(log.is_open());
  EXPECT_FALSE(log.Append("{}"));
}

}  // namespace
}  // namespace poisonrec
