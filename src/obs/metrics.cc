#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json.h"

namespace poisonrec::obs {

namespace {

// Uptime reference: the steady clock when the registry (or any metric)
// was first touched in this process. Captured eagerly from Global().
std::chrono::steady_clock::time_point ProcessStart() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

double UptimeSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ProcessStart())
      .count();
}

double WallUnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace internal {

std::size_t ThisThreadShard() {
  // Sequential shard assignment wraps at kMetricShards; a persistent
  // thread pool (util/parallel) keeps its workers for the process
  // lifetime, so assignments stay well spread in practice.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

namespace {

// Relaxed fetch_add for atomic<double> without requiring C++20 library
// support for the member (implemented as a CAS loop for portability).
void AtomicAdd(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace
}  // namespace internal

std::uint64_t Counter::Value() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t Histogram::BucketIndex(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    // Negative, zero, and NaN all collapse into the underflow bucket;
    // +inf clamps to the top.
    return std::isinf(v) && v > 0.0 ? kNumBuckets - 1 : 0;
  }
  const int exponent = std::ilogb(v);  // floor(log2(v))
  const long idx = static_cast<long>(exponent) - kMinExponent;
  if (idx < 0) return 0;
  if (idx >= static_cast<long>(kNumBuckets)) return kNumBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double Histogram::BucketLowerBound(std::size_t i) {
  if (i == 0) return 0.0;  // bucket 0 absorbs the full underflow range
  return std::ldexp(1.0, static_cast<int>(i) + kMinExponent);
}

double Histogram::BucketUpperBound(std::size_t i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i) + kMinExponent + 1);
}

void Histogram::Observe(double v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAdd(&sum_, v);
  if (prev == 0) {
    // First observation seeds min/max; the CAS helpers below only ever
    // tighten, so a racing second observation still converges.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
  }
  internal::AtomicMin(&min_, v);
  internal::AtomicMax(&max_, v);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double Histogram::SnapshotQuantile(const Snapshot& snapshot, double q) {
  if (snapshot.count == 0) return 0.0;
  if (q <= 0.0) return snapshot.min;
  if (q >= 1.0) return snapshot.max;
  const double target = q * static_cast<double>(snapshot.count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (snapshot.buckets[i] == 0) continue;
    const double in_bucket = static_cast<double>(snapshot.buckets[i]);
    if (cumulative + in_bucket >= target) {
      // Clamping to [min, max] only bites in the first and last occupied
      // buckets (min/max land inside their own buckets), where it turns
      // "somewhere in [2^k, 2^k+1)" into an exact endpoint for
      // concentrated mass and keeps the +inf top bucket bounded.
      const double lo = std::max(BucketLowerBound(i), snapshot.min);
      const double hi =
          std::max(lo, std::min(BucketUpperBound(i), snapshot.max));
      const double fraction = (target - cumulative) / in_bucket;
      return lo + fraction * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return snapshot.max;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    ProcessStart();  // anchor the uptime clock at first registry use
    return new MetricsRegistry();  // never freed
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter(name));
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge(name));
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram(name));
  return slot.get();
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"wall_unix\":";
  AppendJsonNumber(&out, WallUnixSeconds());
  out += ",\"uptime_seconds\":";
  AppendJsonNumber(&out, UptimeSeconds());
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":";
    AppendJsonNumber(&out, counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":";
    AppendJsonNumber(&out, gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    const Histogram::Snapshot s = histogram->TakeSnapshot();
    out += ":{\"count\":";
    AppendJsonNumber(&out, s.count);
    out += ",\"sum\":";
    AppendJsonNumber(&out, s.sum);
    out += ",\"min\":";
    AppendJsonNumber(&out, s.min);
    out += ",\"max\":";
    AppendJsonNumber(&out, s.max);
    out += ",\"p50\":";
    AppendJsonNumber(&out, Histogram::SnapshotQuantile(s, 0.50));
    out += ",\"p95\":";
    AppendJsonNumber(&out, Histogram::SnapshotQuantile(s, 0.95));
    out += ",\"p99\":";
    AppendJsonNumber(&out, Histogram::SnapshotQuantile(s, 0.99));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (s.buckets[i] == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      out += "{\"ge\":";
      AppendJsonNumber(&out, Histogram::BucketLowerBound(i));
      out += ",\"lt\":";
      AppendJsonNumber(&out, Histogram::BucketUpperBound(i));
      out += ",\"count\":";
      AppendJsonNumber(&out, s.buckets[i]);
      out += "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  const std::string contents = SnapshotJson() + "\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace poisonrec::obs
