#include "util/guard.h"

#include <cmath>

namespace poisonrec {

const char* GuardEventKindName(GuardEventKind kind) {
  switch (kind) {
    case GuardEventKind::kNonFiniteReward:
      return "non_finite_reward";
    case GuardEventKind::kNonFiniteLogit:
      return "non_finite_logit";
    case GuardEventKind::kNonFiniteLoss:
      return "non_finite_loss";
    case GuardEventKind::kNonFiniteGradient:
      return "non_finite_gradient";
    case GuardEventKind::kNonFiniteParameter:
      return "non_finite_parameter";
    case GuardEventKind::kNonFiniteOptimizerState:
      return "non_finite_optimizer_state";
    case GuardEventKind::kGradNormExplosion:
      return "grad_norm_explosion";
    case GuardEventKind::kEntropyCollapse:
      return "entropy_collapse";
    case GuardEventKind::kKlDivergence:
      return "kl_divergence";
    case GuardEventKind::kAccountPoolExhausted:
      return "account_pool_exhausted";
  }
  return "?";
}

std::string GuardVerdict::Summary() const {
  if (events.empty()) return "clean";
  std::string out;
  for (const GuardEvent& e : events) {
    if (!out.empty()) out += ", ";
    out += GuardEventKindName(e.kind);
    if (!e.detail.empty()) {
      out += "(";
      out += e.detail;
      out += ")";
    }
  }
  return out;
}

FiniteSweep SweepFinite(const float* data, std::size_t n) {
  FiniteSweep sweep;
  sweep.checked = n;
  // Fast path: a running double sum is finite iff every element is (a
  // NaN/Inf element propagates, and finite floats cannot overflow the
  // double accumulator). Branchless, so the clean case vectorizes.
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += data[i];
  if (std::isfinite(sum)) return sweep;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = data[i];
    if (std::isfinite(v)) continue;
    if (sweep.bad() == 0) sweep.first_bad = i;
    if (std::isnan(v)) {
      ++sweep.nan;
    } else {
      ++sweep.inf;
    }
  }
  return sweep;
}

FiniteSweep SweepFinite(const std::vector<float>& values) {
  return SweepFinite(values.data(), values.size());
}

FiniteSweep SweepFinite(const std::vector<double>& values) {
  FiniteSweep sweep;
  sweep.checked = values.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (std::isfinite(v)) continue;
    if (sweep.bad() == 0) sweep.first_bad = i;
    if (std::isnan(v)) {
      ++sweep.nan;
    } else {
      ++sweep.inf;
    }
  }
  return sweep;
}

}  // namespace poisonrec
