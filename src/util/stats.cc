#include "util/stats.h"

namespace poisonrec {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double sq = 0.0;
  for (double v : values) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(values.size()));
}

void NormalizeRewards(std::vector<double>* values) {
  NormalizeRewards(values, std::vector<char>(values->size(), 1));
}

void NormalizeRewards(std::vector<double>* values,
                      const std::vector<char>& valid) {
  // Non-finite entries are treated as invalid even when masked valid:
  // they must contribute neither to the statistics nor to the gradient.
  std::vector<double> observed;
  observed.reserve(values->size());
  for (std::size_t i = 0; i < values->size(); ++i) {
    if (i < valid.size() && valid[i] && std::isfinite((*values)[i])) {
      observed.push_back((*values)[i]);
    }
  }
  if (observed.size() < 2) {
    for (double& v : *values) v = 0.0;
    return;
  }
  const double mean = Mean(observed);
  const double sd = StdDev(observed);
  for (std::size_t i = 0; i < values->size(); ++i) {
    if (i >= valid.size() || !valid[i] || !std::isfinite((*values)[i]) ||
        sd <= 1e-12) {
      (*values)[i] = 0.0;
    } else {
      (*values)[i] = ((*values)[i] - mean) / sd;
    }
  }
}

}  // namespace poisonrec
