// Deterministic random-number utilities. Every stochastic component in the
// library takes an explicit seed via Rng so that experiments reproduce.
#ifndef POISONREC_UTIL_RANDOM_H_
#define POISONREC_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace poisonrec {

/// Seeded pseudo-random generator with the sampling primitives the library
/// needs (uniform, normal, categorical, Zipf, sampling without
/// replacement). Not thread-safe; use one Rng per thread.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    POISONREC_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).
  std::size_t Index(std::size_t n) {
    POISONREC_CHECK_GT(n, 0u);
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Standard normal sample scaled to N(mean, stddev^2).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli(p) draw.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples an index proportionally to the (non-negative) weights.
  /// At least one weight must be positive.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Samples an index from unnormalized log-weights (numerically stable
  /// softmax sampling).
  std::size_t CategoricalFromLogits(const std::vector<double>& logits);

  /// Samples `k` distinct indices uniformly from [0, n). Floyd's
  /// algorithm; O(k) expected. Result order is unspecified.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Index(i)]);
    }
  }

  /// Draws from a Zipf distribution over ranks {0, ..., n-1}:
  /// P(rank = r) ∝ 1 / (r + 1)^exponent. Inverse-CDF over a precomputed
  /// table is the caller's job for bulk draws; this is the direct form.
  std::size_t Zipf(std::size_t n, double exponent);

  std::mt19937_64& engine() { return engine_; }

  /// Derives an independent child seed (for spawning per-component Rngs).
  std::uint64_t Fork() { return engine_(); }

  /// Engine state as a portable text blob (for crash-safe checkpoints).
  /// Restoring it reproduces the exact draw sequence bit-for-bit.
  std::string SerializeState() const;

  /// Restores a state produced by SerializeState.
  Status DeserializeState(const std::string& state);

 private:
  std::mt19937_64 engine_;
};

/// SplitMix64 finalizer: a bijective avalanche mix (Steele et al.,
/// "Fast splittable pseudorandom number generators").
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Derives the seed of child stream `index` within stream family
/// `stream` of a root `seed`, as a pure function of its arguments: no
/// generator state is consumed, so any subset of child streams can be
/// created in any order (or in parallel) and the result is identical.
/// Used to give every episode rollout of a train step its own Rng —
/// child m of step s is Rng(DeriveStreamSeed(seed, s, m)) — which makes
/// the stacked M-episode rollout deterministic and checkpoint/resume
/// exact: the derivation state is just (seed, step).
inline std::uint64_t DeriveStreamSeed(std::uint64_t seed, std::uint64_t stream,
                                      std::uint64_t index) {
  return SplitMix64(SplitMix64(seed ^ SplitMix64(stream)) + index);
}

/// Precomputed cumulative table for repeated Zipf draws over a fixed
/// support size. P(rank = r) ∝ 1/(r+1)^exponent.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double exponent);

  std::size_t Sample(Rng* rng) const;
  std::size_t size() const { return cdf_.size(); }
  /// Probability mass of rank r.
  double Pmf(std::size_t r) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace poisonrec

#endif  // POISONREC_UTIL_RANDOM_H_
