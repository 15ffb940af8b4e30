// Unreliable-environment simulation: a fault-injecting decorator over
// AttackEnvironment.
//
// PoisonRec's premise is attacking a *live* black-box system, and real
// targets are not clean oracles: they throttle crawlers, silently drop
// injected behaviors, shadow-ban suspicious accounts, and return noisy or
// stale feedback. FaultyEnvironment simulates exactly those failure modes
// so the training loop (core/ppo.h) can be hardened against them — see
// docs/robustness.md for the full fault model.
//
// Every fault draw is a pure function of (profile.seed, query_id, attempt),
// so runs reproduce regardless of thread scheduling: the caller assigns
// query ids (the PPO loop uses step * M + m) and parallel queries stay
// independent.
//
// Shadow bans vs. permanent bans: this decorator's shadow_ban_rate is a
// *per-query, identity-less* fault — each query independently redraws
// which trajectories vanish, nothing is remembered, and the same account
// lands its clicks again on the very next query. The *stateful* adversary
// that audits accumulated behavior and removes an account forever is
// env::DefendedEnvironment (defended.h). The two stack cleanly —
// DefendedEnvironment over FaultyEnvironment over the base — because the
// defended layer filters permanently banned accounts and forwards the
// rest here with the caller's original query_id, leaving this layer's
// (seed, query_id, attempt) draw streams untouched.
#ifndef POISONREC_ENV_FAULT_H_
#define POISONREC_ENV_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "env/environment.h"
#include "util/status.h"

namespace poisonrec::env {

/// Fault rates of the simulated unreliable target. All rates are
/// probabilities in [0, 1]; 0 disables the corresponding fault.
struct FaultProfile {
  /// Per-attempt transient query failure (kUnavailable). Independent
  /// across attempts, so retrying helps.
  double query_failure_rate = 0.0;
  /// Per-query throttling (kResourceExhausted). A throttled query keeps
  /// failing until `throttle_cooldown_attempts` attempts have been burned
  /// (the cool-down), then succeeds — modeling a rate limiter that
  /// eventually forgives the caller.
  double throttle_rate = 0.0;
  std::uint32_t throttle_cooldown_attempts = 2;
  /// Per-click silent injection drop: this fraction of each trajectory's
  /// items is discarded before the poison log is built. The attacker is
  /// not told which clicks landed.
  double injection_drop_rate = 0.0;
  /// Per-trajectory shadow ban: a banned attacker's whole trajectory is
  /// ignored for this query. Transient and identity-less — redrawn every
  /// query, never remembered. Permanent, stateful account bans are
  /// env::DefendedEnvironment's job (see the file comment).
  double shadow_ban_rate = 0.0;
  /// Gaussian observation noise added to the returned RecNum
  /// (stddev in reward units; the result is clamped at 0).
  double reward_noise_stddev = 0.0;
  /// Probability of returning the previous successful query's (stale)
  /// reward instead of the fresh one. The stale cache is process-local
  /// runtime state: it is NOT part of any checkpoint, so bit-identical
  /// resume requires stale_reward_rate == 0.
  double stale_reward_rate = 0.0;
  /// Per-query probability of returning NaN instead of the real reward
  /// (a corrupted feedback channel: broken crawler parse, overflowed
  /// counter). The query *succeeds* — no Status error is raised — which
  /// is exactly what the training-stability guardrails exist to catch
  /// (see util/guard.h and docs/robustness.md).
  double nan_reward_rate = 0.0;
  std::uint64_t seed = 1234;
};

/// The range rule of FaultProfile: rates in [0, 1], noise stddev >= 0.
/// kInvalidArgument names the first field that breaks it.
Status ValidateFaultProfile(const FaultProfile& profile);

/// Counters of the faults actually injected (a plain copyable snapshot).
struct FaultStats {
  std::uint64_t attempts = 0;
  std::uint64_t transient_failures = 0;
  std::uint64_t throttled = 0;
  std::uint64_t successes = 0;
  std::uint64_t dropped_clicks = 0;
  std::uint64_t banned_trajectories = 0;
  std::uint64_t stale_rewards = 0;
  std::uint64_t nan_rewards = 0;
};

/// Decorator exposing the unreliable view of an AttackEnvironment. Safe
/// for concurrent TryEvaluate calls (the base environment's Evaluate is
/// already const/thread-safe; fault state here is atomic or mutex-guarded).
class FaultyEnvironment : public RewardSource {
 public:
  /// The base environment must outlive this decorator.
  FaultyEnvironment(const AttackEnvironment* base, const FaultProfile& profile);

  const AttackEnvironment& base() const override { return *base_; }

  /// One query attempt against the unreliable system. Returns
  /// kUnavailable (transient failure), kResourceExhausted (throttled;
  /// retriable after the cool-down), or the — possibly corrupted —
  /// RecNum reward. Deterministic in (profile.seed, query_id, attempt).
  StatusOr<double> TryEvaluate(const std::vector<Trajectory>& trajectories,
                               std::uint64_t query_id,
                               std::uint32_t attempt = 0) const override;

  /// Counters of faults injected so far.
  FaultStats stats() const;

 private:
  const AttackEnvironment* base_;
  FaultProfile profile_;

  // Stale-reward cache (runtime-only; see FaultProfile::stale_reward_rate).
  mutable std::mutex stale_mutex_;
  mutable double last_reward_ = 0.0;
  mutable bool has_last_reward_ = false;

  mutable std::atomic<std::uint64_t> attempts_{0};
  mutable std::atomic<std::uint64_t> transient_failures_{0};
  mutable std::atomic<std::uint64_t> throttled_{0};
  mutable std::atomic<std::uint64_t> successes_{0};
  mutable std::atomic<std::uint64_t> dropped_clicks_{0};
  mutable std::atomic<std::uint64_t> banned_trajectories_{0};
  mutable std::atomic<std::uint64_t> stale_rewards_{0};
  mutable std::atomic<std::uint64_t> nan_rewards_{0};
};

}  // namespace poisonrec::env

#endif  // POISONREC_ENV_FAULT_H_
