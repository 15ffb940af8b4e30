// Training-stability guardrails: cheap finite-ness sweeps over float
// buffers, per-step guard verdicts describing what tripped (NaN/Inf in
// rewards, logits, loss, gradients, parameters, or optimizer state;
// gradient-norm explosion; entropy collapse; PPO approx-KL divergence).
// Each tripped guard is also one {"type":"guard",...} record of the
// campaign event stream (core::PoisonRecAttacker::SetEventLog).
//
// The guards exist because black-box attack training is exactly the
// regime where degenerate updates are common: RecNum feedback is noisy
// and batches are tiny, so a single non-finite value silently corrupts
// the policy and every episode after it. The monitors are wired into
// core/ppo.cc (Eq. 7/8/9 of the paper); the self-healing rollback driver
// is core::PoisonRecAttacker::TrainGuarded. See docs/robustness.md.
#ifndef POISONREC_UTIL_GUARD_H_
#define POISONREC_UTIL_GUARD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace poisonrec {

/// What a guard sweep found wrong. Names are stable (they appear in the
/// event stream's guard records); extend at the end only.
enum class GuardEventKind : std::uint8_t {
  /// An observed episode reward was NaN/Inf (caught before the Eq. 8
  /// batch normalization could spread it into every advantage).
  kNonFiniteReward = 0,
  /// A recomputed decision log-probability (the Eq. 7/9 logits) was
  /// NaN/Inf.
  kNonFiniteLogit = 1,
  /// The clipped-surrogate loss value was NaN/Inf.
  kNonFiniteLoss = 2,
  /// A gradient buffer contained NaN/Inf after backward.
  kNonFiniteGradient = 3,
  /// A parameter tensor contained NaN/Inf after the Adam step.
  kNonFiniteParameter = 4,
  /// An Adam moment buffer contained NaN/Inf after the step.
  kNonFiniteOptimizerState = 5,
  /// Pre-clip global gradient norm exceeded the explosion threshold.
  kGradNormExplosion = 6,
  /// Mean sampled policy entropy fell below the collapse floor.
  kEntropyCollapse = 7,
  /// Mean approx-KL(old || new) exceeded the divergence threshold.
  kKlDivergence = 8,
  /// The attacker account pool drained below min_live_attackers (an
  /// adaptive defender banned the fleet faster than the reserve could
  /// replace it; campaign aborts with kResourceExhausted — see
  /// core/account_pool.h and env/defended.h). A resource incident, not a
  /// numerical one: TrainGuarded never rolls back on it.
  kAccountPoolExhausted = 9,
};

/// Stable snake_case name for guard records ("non_finite_reward", ...).
const char* GuardEventKindName(GuardEventKind kind);

/// Thresholds and rollback budget of the guardrail subsystem. All
/// monitors are off unless `enabled`; individual thresholds of 0 disable
/// just that monitor.
struct GuardConfig {
  bool enabled = false;
  /// Sweep every policy parameter for NaN/Inf before sampling each step
  /// (catches corruption before it produces garbage trajectories).
  bool pre_step_param_sweep = true;
  /// Pre-clip gradient norm beyond this trips kGradNormExplosion
  /// (0 = disabled).
  double grad_norm_threshold = 100.0;
  /// Mean sampled entropy (-log p of the chosen decisions) below this
  /// trips kEntropyCollapse (0 = disabled).
  double entropy_floor = 1e-5;
  /// Mean approx-KL(old || new) beyond this trips kKlDivergence
  /// (0 = disabled).
  double approx_kl_threshold = 5.0;
  /// Consecutive rollbacks TrainGuarded tolerates before aborting the
  /// campaign with kFailedPrecondition.
  std::size_t max_rollbacks = 4;
};

/// One tripped monitor: the offending value and the threshold it broke
/// (0 for pure finiteness sweeps), plus a short human-readable locator
/// ("parameter 3", "episode 7", ...).
struct GuardEvent {
  GuardEventKind kind = GuardEventKind::kNonFiniteReward;
  double value = 0.0;
  double threshold = 0.0;
  std::string detail;
};

/// Everything that tripped during one training step. Empty = clean step.
struct GuardVerdict {
  std::vector<GuardEvent> events;

  bool tripped() const { return !events.empty(); }
  /// "clean" or "kind(detail), kind(detail), ..." for log lines.
  std::string Summary() const;
};

/// Result of a finite-ness sweep over a buffer.
struct FiniteSweep {
  std::size_t checked = 0;
  std::size_t nan = 0;
  std::size_t inf = 0;
  /// Index of the first non-finite element (meaningful when !clean()).
  std::size_t first_bad = 0;

  bool clean() const { return nan == 0 && inf == 0; }
  std::size_t bad() const { return nan + inf; }
};

/// Counts NaN/Inf entries. The float overloads are the hot path (policy
/// parameters, gradients, Adam moments); the double overload covers
/// rewards and other driver-side scalars.
FiniteSweep SweepFinite(const float* data, std::size_t n);
FiniteSweep SweepFinite(const std::vector<float>& values);
FiniteSweep SweepFinite(const std::vector<double>& values);

}  // namespace poisonrec

#endif  // POISONREC_UTIL_GUARD_H_
