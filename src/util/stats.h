// Small statistics helpers: running mean/variance (Welford) and batch
// normalization of reward vectors (paper Eq. 8).
#ifndef POISONREC_UTIL_STATS_H_
#define POISONREC_UTIL_STATS_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace poisonrec {

/// Online mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Population variance; 0 when fewer than 2 samples.
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

  void AddTracked(double x) {
    if (count_ == 0 || x < min_) min_ = x;
    if (count_ == 0 || x > max_) max_ = x;
    Add(x);
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Normalizes `values` in place to zero mean / unit standard deviation
/// (paper Eq. 8), as the masked overload with every entry valid: constant
/// and single-observation batches, and batches whose finite subset is
/// smaller than 2, degrade to all-zero advantages instead of dividing by
/// zero; NaN/Inf entries are excluded from the statistics and forced to 0.
void NormalizeRewards(std::vector<double>* values);

/// Masked variant for degraded batches: mean/stddev are computed over
/// entries with valid[i] != 0 only, and invalid entries are forced to 0
/// (zero advantage) so imputed rewards cannot skew the Eq. 8 statistics.
/// Non-finite entries count as invalid even when masked valid. With
/// fewer than 2 valid entries every value becomes 0.
void NormalizeRewards(std::vector<double>* values,
                      const std::vector<char>& valid);

/// Mean of a vector; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Population standard deviation; 0 for fewer than 2 entries.
double StdDev(const std::vector<double>& values);

}  // namespace poisonrec

#endif  // POISONREC_UTIL_STATS_H_
