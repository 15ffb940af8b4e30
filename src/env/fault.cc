#include "env/fault.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace poisonrec::env {

namespace {

/// Process-global mirrors of the per-instance fault counters, so a
/// metrics snapshot shows platform unreliability without having to
/// reach into every decorator instance. Fetched once, then each bump is
/// a relaxed sharded add alongside the member atomic's.
struct FaultCounters {
  obs::Counter* attempts;
  obs::Counter* transient_failures;
  obs::Counter* throttled;
  obs::Counter* dropped_clicks;
  obs::Counter* banned_trajectories;
  obs::Counter* stale_rewards;
  obs::Counter* nan_rewards;
  obs::Counter* successes;
};

const FaultCounters& Counters() {
  static const FaultCounters counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    FaultCounters c;
    c.attempts = reg.GetCounter("poisonrec_fault_attempts_total");
    c.transient_failures =
        reg.GetCounter("poisonrec_fault_transient_failures_total");
    c.throttled = reg.GetCounter("poisonrec_fault_throttled_total");
    c.dropped_clicks = reg.GetCounter("poisonrec_fault_dropped_clicks_total");
    c.banned_trajectories =
        reg.GetCounter("poisonrec_fault_banned_trajectories_total");
    c.stale_rewards = reg.GetCounter("poisonrec_fault_stale_rewards_total");
    c.nan_rewards = reg.GetCounter("poisonrec_fault_nan_rewards_total");
    c.successes = reg.GetCounter("poisonrec_fault_successes_total");
    return c;
  }();
  return counters;
}

/// Decorrelates structured (seed, id, attempt) tuples into
/// independent-looking Rng seeds.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t query_id,
                      std::uint64_t attempt) {
  return SplitMix64(SplitMix64(seed ^ SplitMix64(query_id)) ^
                    SplitMix64(attempt + 1));
}

}  // namespace

Status ValidateFaultProfile(const FaultProfile& profile) {
  const std::pair<const char*, double> rates[] = {
      {"query_failure_rate", profile.query_failure_rate},
      {"throttle_rate", profile.throttle_rate},
      {"injection_drop_rate", profile.injection_drop_rate},
      {"shadow_ban_rate", profile.shadow_ban_rate},
      {"stale_reward_rate", profile.stale_reward_rate},
      {"nan_reward_rate", profile.nan_reward_rate}};
  for (const auto& [name, rate] : rates) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be a probability in [0, 1], got " +
                                     std::to_string(rate));
    }
  }
  if (!(profile.reward_noise_stddev >= 0.0)) {
    return Status::InvalidArgument(
        "reward_noise_stddev must be >= 0, got " +
        std::to_string(profile.reward_noise_stddev));
  }
  return Status::OK();
}

FaultyEnvironment::FaultyEnvironment(const AttackEnvironment* base,
                                     const FaultProfile& profile)
    : base_(base), profile_(profile) {
  POISONREC_CHECK(base_ != nullptr);
  POISONREC_CHECK_OK(ValidateFaultProfile(profile_));
}

StatusOr<double> FaultyEnvironment::TryEvaluate(
    const std::vector<Trajectory>& trajectories, std::uint64_t query_id,
    std::uint32_t attempt) const {
  attempts_.fetch_add(1, std::memory_order_relaxed);
  Counters().attempts->Increment();

  // Attempt-level fault: transient failure, independent across attempts.
  Rng attempt_rng(MixSeed(profile_.seed, query_id, attempt + 1));
  if (profile_.query_failure_rate > 0.0 &&
      attempt_rng.Bernoulli(profile_.query_failure_rate)) {
    transient_failures_.fetch_add(1, std::memory_order_relaxed);
    Counters().transient_failures->Increment();
    return Status::Unavailable("transient query failure (query " +
                               std::to_string(query_id) + ", attempt " +
                               std::to_string(attempt) + ")");
  }

  // Query-level draws: one Rng per query id, so which trajectories are
  // banned / which clicks are dropped does not depend on the attempt that
  // finally succeeds.
  Rng query_rng(MixSeed(profile_.seed, query_id, 0));
  const bool throttled = profile_.throttle_rate > 0.0 &&
                         query_rng.Bernoulli(profile_.throttle_rate);
  if (throttled && attempt < profile_.throttle_cooldown_attempts) {
    throttled_.fetch_add(1, std::memory_order_relaxed);
    Counters().throttled->Increment();
    return Status::ResourceExhausted(
        "throttled (query " + std::to_string(query_id) + "; cool-down " +
        std::to_string(profile_.throttle_cooldown_attempts) + " attempts)");
  }

  // Corrupt the injection: shadow-banned attackers lose their whole
  // trajectory; surviving trajectories lose a fraction of their clicks.
  // One Uniform() draw per trajectory + per click, unconditionally, keeps
  // the draw stream aligned across profiles that differ only in rates.
  std::vector<Trajectory> delivered;
  delivered.reserve(trajectories.size());
  std::uint64_t dropped = 0;
  std::uint64_t banned = 0;
  for (const Trajectory& traj : trajectories) {
    const bool ban = query_rng.Uniform() < profile_.shadow_ban_rate;
    Trajectory kept;
    kept.attacker_index = traj.attacker_index;
    kept.items.reserve(traj.items.size());
    for (data::ItemId item : traj.items) {
      const bool drop = query_rng.Uniform() < profile_.injection_drop_rate;
      if (ban) continue;
      if (drop) {
        ++dropped;
      } else {
        kept.items.push_back(item);
      }
    }
    if (ban) {
      ++banned;
      continue;
    }
    if (!kept.items.empty()) delivered.push_back(std::move(kept));
  }
  dropped_clicks_.fetch_add(dropped, std::memory_order_relaxed);
  banned_trajectories_.fetch_add(banned, std::memory_order_relaxed);
  Counters().dropped_clicks->Increment(dropped);
  Counters().banned_trajectories->Increment(banned);

  double reward = base_->Evaluate(delivered);

  // Observation noise on the feedback channel.
  if (profile_.reward_noise_stddev > 0.0) {
    reward += query_rng.Normal(0.0, profile_.reward_noise_stddev);
    reward = std::max(reward, 0.0);
  }

  // Stale feedback: sometimes the crawled metric has not refreshed yet.
  if (profile_.stale_reward_rate > 0.0) {
    const bool stale = query_rng.Uniform() < profile_.stale_reward_rate;
    std::lock_guard<std::mutex> lock(stale_mutex_);
    if (stale && has_last_reward_) {
      stale_rewards_.fetch_add(1, std::memory_order_relaxed);
      Counters().stale_rewards->Increment();
      reward = last_reward_;
    } else {
      last_reward_ = reward;
      has_last_reward_ = true;
    }
  }

  // Corrupted feedback channel: the query "succeeds" but the returned
  // RecNum is NaN. Drawn after every other fault so enabling it leaves
  // the rest of the fault stream untouched. The stale cache above keeps
  // the clean value — staleness models an unrefreshed metric, not a
  // re-served corruption.
  if (profile_.nan_reward_rate > 0.0 &&
      query_rng.Uniform() < profile_.nan_reward_rate) {
    nan_rewards_.fetch_add(1, std::memory_order_relaxed);
    Counters().nan_rewards->Increment();
    reward = std::numeric_limits<double>::quiet_NaN();
  }

  successes_.fetch_add(1, std::memory_order_relaxed);
  Counters().successes->Increment();
  return reward;
}

FaultStats FaultyEnvironment::stats() const {
  FaultStats s;
  s.attempts = attempts_.load(std::memory_order_relaxed);
  s.transient_failures = transient_failures_.load(std::memory_order_relaxed);
  s.throttled = throttled_.load(std::memory_order_relaxed);
  s.successes = successes_.load(std::memory_order_relaxed);
  s.dropped_clicks = dropped_clicks_.load(std::memory_order_relaxed);
  s.banned_trajectories = banned_trajectories_.load(std::memory_order_relaxed);
  s.stale_rewards = stale_rewards_.load(std::memory_order_relaxed);
  s.nan_rewards = nan_rewards_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace poisonrec::env
