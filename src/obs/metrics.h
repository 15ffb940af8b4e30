// Process-wide metrics registry: named Counters, Gauges, and Histograms
// with a lock-free fast path, aggregated only when a snapshot is taken.
//
// Design: instrumentation sites fetch a metric pointer once (registration
// takes the registry mutex) and cache it in a function-local static, so
// the steady-state cost of an increment is one relaxed atomic add on a
// cache-line-padded shard picked by the calling thread. Shards exist
// because the hottest counters (the GEMM call/flop counters in
// nn/kernels.cc) are bumped concurrently from every ParallelFor worker;
// a single atomic would ping-pong its cache line across cores.
//
// Metric naming convention (docs/observability.md):
//   poisonrec_<layer>_<what>[_total]
// where `_total` marks monotonic counters (Prometheus style), e.g.
// poisonrec_gemm_calls_total, poisonrec_ppo_reward_mean,
// poisonrec_defense_bans_total.
//
// Snapshots are exported as JSON ({"counters":{...},"gauges":{...},
// "histograms":{...}}). Counter reads during concurrent increments are
// linearizable per shard, not across shards — a snapshot may miss
// increments that race with it, never double-count.
#ifndef POISONREC_OBS_METRICS_H_
#define POISONREC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace poisonrec::obs {

/// Shard count for striped counters. Power of two; sized for many more
/// cores than the bench boxes have without bloating each counter.
inline constexpr std::size_t kMetricShards = 16;

namespace internal {
/// Stable per-thread shard index in [0, kMetricShards).
std::size_t ThisThreadShard();

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace internal

/// Monotonic counter. Increment is one relaxed fetch_add on this
/// thread's shard; Value() sums the shards.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    shards_[internal::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::array<internal::PaddedU64, kMetricShards> shards_;
};

/// Last-write-wins scalar (single atomic double; writers race benignly).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Histogram over fixed log2-scale buckets: bucket i covers
/// [2^(i + kMinExponent), 2^(i + kMinExponent + 1)), so boundaries are
/// exact powers of two and bucketing needs no float comparisons beyond
/// an exponent extraction. Values <= 0 (and subnormal underflow) land in
/// bucket 0; values beyond the top boundary clamp into the last bucket.
/// The default range [2^-30, 2^34) covers nanosecond-scale spans through
/// tens-of-billions RecNum counts.
class Histogram {
 public:
  static constexpr int kMinExponent = -30;
  static constexpr std::size_t kNumBuckets = 64;

  /// Bucket index for a value (see the class comment for the mapping).
  static std::size_t BucketIndex(double v);
  /// Inclusive lower bound of bucket i (0 for bucket 0, which also
  /// absorbs everything below 2^kMinExponent).
  static double BucketLowerBound(std::size_t i);
  /// Exclusive upper bound of bucket i (+inf for the last bucket).
  static double BucketUpperBound(std::size_t i);

  void Observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    std::array<std::uint64_t, kNumBuckets> buckets{};
  };
  Snapshot TakeSnapshot() const;

  /// Quantile estimate from the bucketed snapshot: linear interpolation
  /// of rank q*count within the covering log2 bucket, with the bucket's
  /// bounds clamped to the observed [min, max] (so a single-valued
  /// histogram reports the exact value and the open-ended top bucket
  /// never extrapolates past max). 0 when the snapshot is empty; exact
  /// only when mass is concentrated at bucket edges, otherwise an
  /// estimate with at most one-bucket (2x) resolution.
  static double SnapshotQuantile(const Snapshot& snapshot, double q);

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// The process-wide registry. Get* registers on first use and returns a
/// stable pointer; callers cache it (typically in a function-local
/// static) so the mutex is only ever taken on the first call per site.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// One JSON object: {"wall_unix":..,"uptime_seconds":..,
  /// "counters":{name:value,...},"gauges":{...},
  /// "histograms":{name:{"count":..,"sum":..,"min":..,"max":..,
  /// "p50":..,"p95":..,"p99":..,
  /// "buckets":[{"ge":..,"lt":..,"count":..},...]}}}. Zero-count
  /// histogram buckets are omitted; p50/p95/p99 are
  /// Histogram::SnapshotQuantile estimates.
  ///
  /// Timestamp contract: `wall_unix` (system clock, unix-epoch seconds
  /// at snapshot time) is comparable across processes and machines —
  /// it is the field fleet aggregation (orch/status.h) trusts for
  /// staleness math. `uptime_seconds` (steady clock since this process
  /// first touched the registry) is monotonic but only meaningful
  /// within one process.
  std::string SnapshotJson() const;
  /// Writes SnapshotJson() to `path`. False on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // std::map: stable addresses and deterministic (sorted) export order.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace poisonrec::obs

#endif  // POISONREC_OBS_METRICS_H_
