#include "core/ppo.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "env/defended.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace poisonrec::core {

PoisonRecAttacker::PoisonRecAttacker(const env::AttackEnvironment* environment,
                                     const PoisonRecConfig& config)
    : env_(environment),
      platform_(environment),
      config_(config),
      rng_(config.seed) {
  POISONREC_CHECK(env_ != nullptr);
  POISONREC_CHECK_GE(config_.samples_per_step, config_.batch_size);
  POISONREC_CHECK_GE(config_.batch_size, 2u)
      << "reward normalization (Eq. 8) needs at least 2 samples";

  // With a replacement pool, the environment's account space covers the
  // reserve; the policy keeps controlling only the initial fleet.
  num_slots_ = env_->num_attackers();
  if (config_.pool.reserve_accounts > 0) {
    POISONREC_CHECK_GT(env_->num_attackers(), config_.pool.reserve_accounts)
        << "reserve_accounts must leave at least one policy slot";
    num_slots_ = env_->num_attackers() - config_.pool.reserve_accounts;
    pool_ = std::make_unique<AccountPool>(num_slots_, env_->num_attackers());
  }

  // Attacker knowledge: item count + popularity (crawlable), target ids.
  std::vector<data::ItemId> originals;
  {
    const std::vector<std::size_t>& pop = env_->item_popularity();
    originals.reserve(env_->num_original_items());
    for (data::ItemId i = 0; i < env_->num_original_items(); ++i) {
      originals.push_back(i);
    }
    std::sort(originals.begin(), originals.end(),
              [&pop](data::ItemId a, data::ItemId b) {
                if (pop[a] != pop[b]) return pop[a] < pop[b];
                return a < b;
              });
  }
  policy_ = std::make_unique<Policy>(num_slots_, env_->num_total_items(),
                                     originals, env_->target_items(),
                                     config_.policy);
  optimizer_ = std::make_unique<nn::Adam>(policy_->Parameters(),
                                          config_.learning_rate);
}

void PoisonRecAttacker::AttachPlatform(const env::RewardSource* platform,
                                       env::DefendedEnvironment* defender,
                                       SleepFn retry_sleep) {
  POISONREC_CHECK(platform != nullptr && &platform->base() == env_)
      << "the platform must be stacked over the attacker's environment";
  POISONREC_CHECK(defender == nullptr ||
                  static_cast<const env::RewardSource*>(defender) == platform)
      << "the defender must be the platform itself, its outermost layer";
  platform_ = platform;
  defended_ = defender;
  retry_sleep_ = std::move(retry_sleep);
}

std::vector<env::Trajectory> PoisonRecAttacker::MapToAccounts(
    const std::vector<SampledTrajectory>& trajectories) const {
  if (pool_ == nullptr) return ToEnvTrajectories(trajectories);
  std::vector<env::Trajectory> out;
  out.reserve(trajectories.size());
  for (const SampledTrajectory& traj : trajectories) {
    const std::size_t account = pool_->account(traj.attacker_index);
    if (account == AccountPool::kDeadSlot) continue;  // fleet shrank
    env::Trajectory t;
    t.attacker_index = account;
    t.items.reserve(traj.steps.size());
    for (const SampledStep& step : traj.steps) t.items.push_back(step.item);
    out.push_back(std::move(t));
  }
  return out;
}

void PoisonRecAttacker::SyncDefenderState(TrainStepStats* stats) {
  std::vector<std::size_t> banned;
  if (defended_ != nullptr) banned = defended_->BannedAccounts();
  stats->banned_accounts = banned.size();
  if (pool_ == nullptr) {
    // Pool-less degradation: a banned slot is simply gone for good.
    std::size_t live = num_slots_;
    for (std::size_t account : banned) {
      if (account < num_slots_) --live;
    }
    stats->effective_attackers = live;
    return;
  }
  for (std::size_t account : banned) pool_->OnBanned(account);
  stats->pool_remaining = pool_->reserve_remaining();
  stats->effective_attackers = pool_->live_slots();
  const std::size_t min_live = config_.pool.min_live_attackers;
  if (min_live > 0 && pool_->live_slots() < min_live &&
      campaign_status_.ok()) {
    // Incident post-mortem, then abort: this is a resource failure, not a
    // numerical anomaly — it stays out of the step verdict so it cannot
    // trip the rollback driver.
    GuardEvent event{GuardEventKind::kAccountPoolExhausted,
                     static_cast<double>(pool_->live_slots()),
                     static_cast<double>(min_live),
                     std::to_string(pool_->retired_accounts()) +
                         " accounts banned, reserve empty, " +
                         std::to_string(pool_->live_slots()) + "/" +
                         std::to_string(num_slots_) + " slots live"};
    EmitGuardEvent(stats->step, event);
    campaign_status_ = Status::ResourceExhausted(
        "attacker pool exhausted at step " + std::to_string(stats->step) +
        ": " + event.detail);
    POISONREC_LOG(Warning) << "campaign aborted: "
                           << campaign_status_.message();
  }
}

void PoisonRecAttacker::EmitStepTelemetry(const TrainStepStats& stats) {
  // Metric pointers are fetched once per process (the registry returns
  // stable addresses); after that each line is a relaxed atomic op.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* const steps_total =
      reg.GetCounter("poisonrec_ppo_steps_total");
  static obs::Counter* const retries_total =
      reg.GetCounter("poisonrec_ppo_retries_total");
  static obs::Counter* const failed_total =
      reg.GetCounter("poisonrec_ppo_failed_queries_total");
  static obs::Counter* const imputed_total =
      reg.GetCounter("poisonrec_ppo_imputed_rewards_total");
  static obs::Gauge* const reward_mean =
      reg.GetGauge("poisonrec_ppo_reward_mean");
  static obs::Gauge* const reward_best =
      reg.GetGauge("poisonrec_ppo_reward_best");
  static obs::Gauge* const entropy = reg.GetGauge("poisonrec_ppo_entropy");
  static obs::Gauge* const approx_kl = reg.GetGauge("poisonrec_ppo_approx_kl");
  static obs::Gauge* const grad_norm = reg.GetGauge("poisonrec_ppo_grad_norm");
  static obs::Gauge* const banned =
      reg.GetGauge("poisonrec_defense_banned_accounts");
  static obs::Gauge* const pool_remaining =
      reg.GetGauge("poisonrec_pool_reserve_remaining");
  static obs::Gauge* const effective =
      reg.GetGauge("poisonrec_pool_effective_attackers");
  static obs::Histogram* const reward_hist =
      reg.GetHistogram("poisonrec_ppo_reward");
  static obs::Histogram* const entropy_hist =
      reg.GetHistogram("poisonrec_ppo_entropy");
  static obs::Histogram* const grad_norm_hist =
      reg.GetHistogram("poisonrec_ppo_grad_norm");
  static obs::Histogram* const step_seconds =
      reg.GetHistogram("poisonrec_ppo_step_seconds");
  steps_total->Increment();
  retries_total->Increment(stats.retries);
  failed_total->Increment(stats.failed_queries);
  imputed_total->Increment(stats.imputed_rewards);
  reward_mean->Set(stats.mean_reward);
  reward_best->Set(stats.best_reward_so_far);
  entropy->Set(stats.entropy);
  approx_kl->Set(stats.approx_kl);
  grad_norm->Set(stats.pre_clip_grad_norm);
  banned->Set(static_cast<double>(stats.banned_accounts));
  pool_remaining->Set(static_cast<double>(stats.pool_remaining));
  effective->Set(static_cast<double>(stats.effective_attackers));
  reward_hist->Observe(stats.mean_reward);
  entropy_hist->Observe(stats.entropy);
  grad_norm_hist->Observe(stats.pre_clip_grad_norm);
  step_seconds->Observe(stats.seconds);

  if (event_log_ == nullptr) return;
  {
    obs::JsonObjectBuilder b;
    b.Str("type", "step")
        .Int("step", stats.step)
        .Num("reward_mean", stats.mean_reward)
        .Num("reward_max", stats.max_reward)
        .Num("reward_best", stats.best_reward_so_far)
        .Num("loss", stats.loss)
        .Num("entropy", stats.entropy)
        .Num("approx_kl", stats.approx_kl)
        .Num("grad_norm", stats.pre_clip_grad_norm)
        .Num("target_click_ratio", stats.target_click_ratio)
        .Num("seconds", stats.seconds)
        .Num("sample_seconds", stats.sample_seconds)
        .Num("query_seconds", stats.query_seconds)
        .Num("update_seconds", stats.update_seconds)
        .Num("other_seconds", stats.other_seconds)
        .Int("retries", stats.retries)
        .Int("failed_queries", stats.failed_queries)
        .Int("imputed_rewards", stats.imputed_rewards)
        .Int("guard_trips", stats.guard.events.size())
        .Int("banned_accounts", stats.banned_accounts)
        .Int("pool_remaining", stats.pool_remaining)
        .Int("effective_attackers", stats.effective_attackers);
    event_log_->Append(std::move(b).Finish());
  }
  if (defended_ != nullptr) {
    const std::vector<env::BanEvent> bans = defended_->ban_events();
    // A TrainGuarded rollback restores the defender's state, which can
    // shrink the ban list; follow the cursor down so the re-run's bans
    // are streamed again rather than skipped.
    if (bans.size() < ban_events_emitted_) ban_events_emitted_ = bans.size();
    for (std::size_t i = ban_events_emitted_; i < bans.size(); ++i) {
      obs::JsonObjectBuilder b;
      b.Str("type", "ban")
          .Int("step", stats.step)
          .Int("query_id", bans[i].query_id)
          .Int("attacker_index", bans[i].attacker_index)
          .Int("user_id", bans[i].user_id)
          .Num("suspicion", bans[i].suspicion);
      event_log_->Append(std::move(b).Finish());
    }
    ban_events_emitted_ = bans.size();
  }
}

void PoisonRecAttacker::RecordGuardEvent(TrainStepStats* stats,
                                         GuardEvent event) {
  static obs::Counter* const guard_trips =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_guard_trips_total");
  guard_trips->Increment();
  EmitGuardEvent(stats->step, event);
  POISONREC_LOG(Warning) << "guard tripped at step " << stats->step << ": "
                         << GuardEventKindName(event.kind) << " ("
                         << event.detail << ")";
  stats->guard.events.push_back(std::move(event));
}

void PoisonRecAttacker::EmitGuardEvent(std::size_t step,
                                       const GuardEvent& event) {
  ++guard_incidents_;
  if (event_log_ == nullptr) return;
  obs::JsonObjectBuilder b;
  b.Str("type", "guard")
      .Int("step", step)
      .Str("kind", GuardEventKindName(event.kind))
      .Num("value", event.value)
      .Num("threshold", event.threshold)
      .Str("detail", event.detail);
  event_log_->Append(std::move(b).Finish());
}

namespace {

// The clipped surrogate of Eq. 7/9 over one batch, with the telemetry the
// guard monitors and TrainStepStats read.
struct Surrogate {
  nn::Tensor loss;  // differentiable: -(1/D) * sum of the unclipped terms
  double value = 0.0;  // the whole loss, clipped (constant) terms included
  double entropy = 0.0;    // mean -log pi(a|s): sampled-entropy estimate
  double approx_kl = 0.0;  // mean log pi_old - log pi_new
  std::size_t non_finite_log_probs = 0;
};

Surrogate ClippedSurrogate(const std::vector<const Episode*>& batch,
                           const Policy& policy, const AccountPool* pool,
                           float eps) {
  // Eq. 8: normalize rewards within the batch. Imputed (unobserved)
  // rewards are excluded from the statistics and get zero advantage.
  std::vector<double> advantages(batch.size());
  std::vector<char> observed(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    advantages[i] = batch[i]->reward;
    observed[i] = batch[i]->reward_observed ? 1 : 0;
  }
  NormalizeRewards(&advantages, observed);

  // Flatten trajectories; every decision inherits its episode's
  // advantage. Dead slots (drained account pool) are excluded: their
  // trajectories were never injected, so Eq. 7/9 renormalizes over the
  // surviving fleet's decisions.
  std::vector<const SampledTrajectory*> trajs;
  std::vector<double> traj_advantage;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const SampledTrajectory& t : batch[i]->trajectories) {
      if (pool != nullptr && !pool->IsLive(t.attacker_index)) continue;
      trajs.push_back(&t);
      traj_advantage.push_back(advantages[i]);
    }
  }
  const std::vector<DecisionBatch> decisions = policy.RecomputeLogProbs(trajs);

  // Clipped surrogate (Eq. 7/9): obj = min(r*A, clip(r,1±ε)*A). The min
  // either selects the ratio term (gradient flows) or a clipped constant
  // (gradient zero); we encode that with a forward-computed mask.
  Surrogate s;  // entropy and approx_kl hold their sums until the end
  std::size_t n_decisions = 0;
  double const_part = 0.0;  // sum of clipped (constant) objective terms
  nn::Tensor total;  // scalar accumulator of sum(obj)
  for (const DecisionBatch& batch_k : decisions) {
    const std::size_t k = batch_k.new_log_probs.rows();
    n_decisions += k;
    std::vector<float> old_vals(k);
    std::vector<float> mask(k);
    for (std::size_t i = 0; i < k; ++i) {
      const double adv = traj_advantage[batch_k.traj_index[i]];
      const double new_lp =
          static_cast<double>(batch_k.new_log_probs.at(i, 0));
      if (!std::isfinite(new_lp)) ++s.non_finite_log_probs;
      s.entropy -= new_lp;
      s.approx_kl += batch_k.old_log_probs[i] - new_lp;
      const double r = std::exp(new_lp - batch_k.old_log_probs[i]);
      if (adv >= 0.0 ? r <= 1.0 + eps : r >= 1.0 - eps) {  // unclipped
        mask[i] = static_cast<float>(adv);
      } else {
        mask[i] = 0.0f;
        const double clipped_r =
            std::clamp(r, 1.0 - static_cast<double>(eps),
                       1.0 + static_cast<double>(eps));
        const_part += clipped_r * adv;
      }
      old_vals[i] = static_cast<float>(batch_k.old_log_probs[i]);
    }
    nn::Tensor old_t = nn::Tensor::FromData(k, 1, std::move(old_vals));
    nn::Tensor am_t = nn::Tensor::FromData(k, 1, std::move(mask));
    nn::Tensor ratio = nn::Exp(nn::Sub(batch_k.new_log_probs, old_t));
    nn::Tensor obj = nn::Sum(nn::Mul(ratio, am_t));
    total = total.defined() ? nn::Add(total, obj) : obj;
  }
  POISONREC_CHECK_GT(n_decisions, 0u);
  s.entropy /= static_cast<double>(n_decisions);
  s.approx_kl /= static_cast<double>(n_decisions);

  // loss = -(1/D) * (sum_masked + const_part)
  s.loss = nn::Scale(total, -1.0f / static_cast<float>(n_decisions));
  s.value = s.loss.item() - const_part / static_cast<double>(n_decisions);
  return s;
}

// The monitors on one epoch's surrogate, checked before backward so a
// divergent epoch never produces a gradient.
std::optional<GuardEvent> CheckSurrogate(const GuardConfig& guard,
                                         const Surrogate& s,
                                         std::size_t epoch) {
  const std::string where = "epoch " + std::to_string(epoch);
  if (s.non_finite_log_probs > 0) {
    return GuardEvent{GuardEventKind::kNonFiniteLogit,
                      std::numeric_limits<double>::quiet_NaN(), 0.0,
                      std::to_string(s.non_finite_log_probs) +
                          " decision log-probs, " + where};
  }
  if (!std::isfinite(s.value)) {
    return GuardEvent{GuardEventKind::kNonFiniteLoss, s.value, 0.0, where};
  }
  if (guard.entropy_floor > 0.0 && s.entropy < guard.entropy_floor) {
    return GuardEvent{GuardEventKind::kEntropyCollapse, s.entropy,
                      guard.entropy_floor, where};
  }
  if (guard.approx_kl_threshold > 0.0 &&
      s.approx_kl > guard.approx_kl_threshold) {
    return GuardEvent{GuardEventKind::kKlDivergence, s.approx_kl,
                      guard.approx_kl_threshold, where};
  }
  return std::nullopt;
}

// Post-update sweep: gradients were already checked; this validates the
// parameters and Adam moments after the last update epoch.
std::optional<GuardEvent> SweepOptimizer(const nn::Adam& optimizer) {
  const std::vector<nn::Tensor>& params = optimizer.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const FiniteSweep sweep = SweepFinite(params[i].data());
    if (!sweep.clean()) {
      return GuardEvent{GuardEventKind::kNonFiniteParameter,
                        std::numeric_limits<double>::quiet_NaN(), 0.0,
                        "parameter " + std::to_string(i) + ": " +
                            std::to_string(sweep.bad()) + "/" +
                            std::to_string(sweep.checked) + " non-finite"};
    }
  }
  const std::vector<std::vector<float>>& m = optimizer.first_moments();
  const std::vector<std::vector<float>>& v = optimizer.second_moments();
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::size_t bad = SweepFinite(m[i]).bad() + SweepFinite(v[i]).bad();
    if (bad > 0) {
      return GuardEvent{GuardEventKind::kNonFiniteOptimizerState,
                        std::numeric_limits<double>::quiet_NaN(), 0.0,
                        "Adam moments of parameter " + std::to_string(i) +
                            ": " + std::to_string(bad) + " non-finite"};
    }
  }
  return std::nullopt;
}

}  // namespace

PpoUpdateResult PpoUpdate(const PoisonRecConfig& config, const Policy& policy,
                          nn::Adam* optimizer,
                          const std::vector<Episode>& episodes,
                          const AccountPool* pool, Rng* rng) {
  const GuardConfig& guard = config.guard;
  PpoUpdateResult result;  // loss, entropy, approx_kl: sums until the end
  std::size_t diag_epochs = 0;
  std::size_t completed_epochs = 0;
  for (std::size_t epoch = 0; epoch < config.update_epochs; ++epoch) {
    std::vector<const Episode*> batch;
    if (config.batch_size >= episodes.size()) {
      for (const Episode& ep : episodes) batch.push_back(&ep);
    } else {
      std::vector<std::size_t> picks =
          rng->SampleWithoutReplacement(episodes.size(), config.batch_size);
      for (std::size_t p : picks) batch.push_back(&episodes[p]);
    }
    Surrogate s = ClippedSurrogate(batch, policy, pool, config.clip_epsilon);
    result.entropy += s.entropy;
    result.approx_kl += s.approx_kl;
    ++diag_epochs;
    if (guard.enabled) {
      result.guard_event = CheckSurrogate(guard, s, epoch);
      if (result.guard_event) break;
    }

    optimizer->ZeroGrad();
    s.loss.Backward();
    const double pre_clip =
        static_cast<double>(nn::GradNorm(optimizer->parameters()));
    result.pre_clip_grad_norm = std::max(result.pre_clip_grad_norm, pre_clip);
    if (guard.enabled && !std::isfinite(pre_clip)) {
      result.guard_event =
          GuardEvent{GuardEventKind::kNonFiniteGradient, pre_clip, 0.0,
                     "global grad norm, epoch " + std::to_string(epoch)};
      break;
    }
    if (guard.enabled && guard.grad_norm_threshold > 0.0 &&
        pre_clip > guard.grad_norm_threshold) {
      result.guard_event =
          GuardEvent{GuardEventKind::kGradNormExplosion, pre_clip,
                     guard.grad_norm_threshold,
                     "epoch " + std::to_string(epoch)};
      break;
    }
    if (config.max_grad_norm > 0.0f) {
      nn::ClipGradNorm(optimizer->parameters(), config.max_grad_norm);
    }
    optimizer->Step();
    result.loss += s.value;
    ++completed_epochs;
  }
  // Post-update sweep once per step rather than per epoch: corruption
  // introduced by an early epoch's update still surfaces this step, via
  // the next epoch's logit/loss monitors or this final sweep.
  if (guard.enabled && !result.guard_event && completed_epochs > 0) {
    result.guard_event = SweepOptimizer(*optimizer);
  }
  if (completed_epochs > 0) {
    result.loss /= static_cast<double>(completed_epochs);
  }
  if (diag_epochs > 0) {
    result.entropy /= static_cast<double>(diag_epochs);
    result.approx_kl /= static_cast<double>(diag_epochs);
  }
  return result;
}

TrainStepStats PoisonRecAttacker::TrainStep() {
  // The step span encloses the three phase spans below; phase timings in
  // `stats` are read straight off the spans, so the Chrome trace and the
  // printed/streamed numbers are the same measurement. Whatever the
  // phases don't cover is the step's bookkeeping, reported explicitly.
  // RunStep's locals (episodes, autograd tapes) are freed before the span
  // stops, so `seconds` covers the whole step.
  obs::TraceSpan step_span("ppo/step");
  TrainStepStats stats;
  stats.step = ++steps_taken_;
  // Liveness beacon for stall watchdogs: once at step entry and again
  // after each phase, so a supervisor can tell "long step" from "stuck".
  if (heartbeat_) heartbeat_();
  RunStep(&stats);
  stats.seconds = step_span.Stop();
  stats.other_seconds =
      std::max(0.0, stats.seconds - stats.sample_seconds -
                        stats.query_seconds - stats.update_seconds);
  EmitStepTelemetry(stats);
  if (heartbeat_) heartbeat_();
  return stats;
}

void PoisonRecAttacker::RunStep(TrainStepStats* stats) {
  const GuardConfig& guard = config_.guard;

  // Guard monitor: a corrupted policy samples garbage trajectories;
  // catch that before burning M reward queries on it.
  if (guard.enabled && guard.pre_step_param_sweep) {
    const FiniteSweep sweep = policy_->SweepParametersFinite();
    if (!sweep.clean()) {
      RecordGuardEvent(stats, {GuardEventKind::kNonFiniteParameter,
                               std::numeric_limits<double>::quiet_NaN(), 0.0,
                               std::to_string(sweep.bad()) + "/" +
                                   std::to_string(sweep.checked) +
                                   " non-finite before sampling"});
      return;
    }
  }

  // -- Sample M training examples -------------------------------------------
  // Episode m of step s rolls out under its own Rng stream, derived as a
  // pure function of (seed, s, m) — the shared generator is never
  // advanced by sampling. All M episodes roll out as one stacked (M·N x
  // dim) recurrence in which each episode draws only from its own
  // stream, so the sampled trajectories are bit-identical for any thread
  // count and across checkpoint/resume.
  obs::TraceSpan sample_span("ppo/sample");
  std::vector<Rng> rngs;
  rngs.reserve(config_.samples_per_step);
  for (std::size_t m = 0; m < config_.samples_per_step; ++m) {
    rngs.emplace_back(DeriveStreamSeed(config_.seed, stats->step, m));
  }
  std::vector<std::vector<SampledTrajectory>> sampled =
      policy_->SampleEpisodesBatched(rngs.size(), env_->trajectory_length(),
                                     &rngs);
  std::vector<Episode> episodes(sampled.size());
  for (std::size_t m = 0; m < episodes.size(); ++m) {
    episodes[m].trajectories = std::move(sampled[m]);
  }
  stats->sample_seconds = sample_span.Stop();
  if (heartbeat_) heartbeat_();

  // The black-box reward queries are independent and may run
  // concurrently. Retry state is per-query (own jitter stream, own stats
  // slot), so ParallelFor iterations stay independent and results match
  // the sequential order.
  obs::TraceSpan query_span("ppo/query");
  std::vector<std::size_t> query_retries(episodes.size(), 0);
  // A defended platform's ban state is order-dependent: queries evaluate
  // sequentially there so the ban sequence is bit-identical across runs
  // (and across a crash + resume) regardless of parallel_rewards.
  const std::size_t eval_threads =
      (config_.parallel_rewards && defended_ == nullptr) ? config_.num_threads
                                                         : 1;
  ParallelFor(
      episodes.size(), eval_threads,
      [this, &episodes, &query_retries, stats](std::size_t m) {
        const std::vector<env::Trajectory> trajs =
            MapToAccounts(episodes[m].trajectories);
        // Deterministic query id: resuming from a checkpoint replays the
        // same fault stream as an uninterrupted run.
        const std::uint64_t query_id =
            (static_cast<std::uint64_t>(stats->step) - 1) *
                config_.samples_per_step +
            m;
        RetryStats retry_stats;
        StatusOr<double> result = CallWithRetry<double>(
            config_.retry,
            [this, &trajs, query_id](std::size_t attempt) {
              return platform_->TryEvaluate(
                  trajs, query_id, static_cast<std::uint32_t>(attempt));
            },
            /*jitter_seed=*/query_id ^ config_.seed, &retry_stats,
            retry_sleep_, cancel_);
        query_retries[m] = retry_stats.retries;
        if (result.ok()) {
          episodes[m].reward = *result;
        } else {
          episodes[m].reward = 0.0;
          episodes[m].reward_observed = false;
        }
      });

  stats->query_seconds = query_span.Stop();
  if (heartbeat_) heartbeat_();

  for (std::size_t r : query_retries) stats->retries += r;

  // Adaptive-defender bookkeeping: pick up this step's bans, remap banned
  // slots onto reserve accounts, and abort once the fleet is too thin.
  if (defended_ != nullptr || pool_ != nullptr) {
    SyncDefenderState(stats);
    if (!campaign_status_.ok()) return;
  }

  // Guard monitor (Eq. 8 input): a NaN/Inf reward must reach neither the
  // normalization statistics nor best-episode tracking — one poisoned
  // value would spread into every advantage of the batch. The step is
  // abandoned; TrainGuarded rolls back and retries with fresh queries.
  if (guard.enabled) {
    for (std::size_t m = 0; m < episodes.size(); ++m) {
      if (episodes[m].reward_observed &&
          !std::isfinite(episodes[m].reward)) {
        RecordGuardEvent(stats, {GuardEventKind::kNonFiniteReward,
                                 episodes[m].reward, 0.0,
                                 "episode " + std::to_string(m)});
      }
    }
    if (stats->guard.tripped()) return;
  }

  // Graceful degradation: impute failed queries with the mean of the
  // observed rewards so they sit at zero advantage after Eq. 8.
  RunningStats reward_stats;
  double click_ratio_sum = 0.0;
  for (const Episode& ep : episodes) {
    click_ratio_sum += TargetClickRatio(ep, env_->num_original_items());
    if (!ep.reward_observed) {
      ++stats->failed_queries;
      continue;
    }
    reward_stats.AddTracked(ep.reward);
    if (best_episode_.trajectories.empty() ||
        ep.reward > best_episode_.reward) {
      best_episode_ = ep;
    }
  }
  if (reward_stats.count() > 0) {
    for (Episode& ep : episodes) {
      if (!ep.reward_observed) {
        ep.reward = reward_stats.mean();
        ++stats->imputed_rewards;
      }
    }
  }
  stats->mean_reward = reward_stats.mean();
  stats->max_reward = reward_stats.max();
  stats->min_reward = reward_stats.min();
  stats->best_reward_so_far = best_episode_.reward;
  stats->target_click_ratio =
      click_ratio_sum / static_cast<double>(config_.samples_per_step);
  if (stats->failed_queries > 0) {
    POISONREC_LOG(Warning)
        << "step " << stats->step << ": " << stats->failed_queries << "/"
        << episodes.size() << " reward queries failed after retries ("
        << stats->imputed_rewards << " imputed)";
  }

  // -- K epochs of PPO updates ----------------------------------------------
  // With fewer than 2 observed rewards Eq. 8 is undefined; skip the update
  // rather than training on fabricated advantages. A fully dead fleet
  // (pool drained with min_live_attackers == 0) has nothing to train on.
  if (reward_stats.count() < 2 ||
      (pool_ != nullptr && pool_->live_slots() == 0)) {
    return;
  }
  obs::TraceSpan update_span("ppo/update");
  PpoUpdateResult update = PpoUpdate(config_, *policy_, optimizer_.get(),
                                     episodes, pool_.get(), &rng_);
  if (update.guard_event) {
    RecordGuardEvent(stats, std::move(*update.guard_event));
  }
  stats->loss = update.loss;
  stats->entropy = update.entropy;
  stats->approx_kl = update.approx_kl;
  stats->pre_clip_grad_norm = update.pre_clip_grad_norm;
  stats->update_seconds = update_span.Stop();
}

std::vector<TrainStepStats> PoisonRecAttacker::Train(std::size_t steps) {
  std::vector<TrainStepStats> all;
  all.reserve(steps);
  for (std::size_t s = 0; s < steps && campaign_status_.ok(); ++s) {
    if (InterruptRequested()) break;
    all.push_back(TrainStep());
  }
  return all;
}

namespace {

// TrainGuarded's rollback backoff: each rollback halves the learning
// rate and the PPO clip epsilon, down to these floors.
constexpr float kRollbackBackoff = 0.5f;
constexpr float kMinRollbackLearningRate = 1e-5f;
constexpr float kMinRollbackClipEpsilon = 0.01f;

}  // namespace

GuardedTrainResult PoisonRecAttacker::TrainGuarded(
    std::size_t steps, const std::string& checkpoint_path) {
  POISONREC_CHECK(config_.guard.enabled)
      << "TrainGuarded requires config().guard.enabled";
  POISONREC_CHECK(!checkpoint_path.empty())
      << "TrainGuarded needs a checkpoint path for the last-good state";
  GuardedTrainResult result;
  const std::size_t baseline_incidents = guard_incidents_;
  result.status = SaveCheckpoint(checkpoint_path);
  if (!result.status.ok()) return result;

  const std::size_t target = steps_taken_ + steps;
  std::size_t consecutive_rollbacks = 0;
  while (steps_taken_ < target) {
    // Soft stop (graceful fleet shutdown) and hard cancel both interrupt
    // at the step boundary; the previous step is already checkpointed,
    // so a restart resumes exactly here.
    if (InterruptRequested()) {
      result.status = Status::Cancelled("campaign interrupted at step " +
                                        std::to_string(steps_taken_));
      break;
    }
    TrainStepStats stats = TrainStep();
    const bool tripped = stats.guard.tripped();
    const std::string verdict = stats.guard.Summary();
    result.stats.push_back(std::move(stats));
    if (!campaign_status_.ok()) {
      // Resource abort (pool exhausted): not a rollbackable anomaly — its
      // guard incident is already recorded.
      result.status = campaign_status_;
      break;
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      // Hard cancel mid-step: in-flight reward queries were interrupted
      // (kCancelled → imputed rewards), so this step's update is not
      // trustworthy. Do NOT checkpoint it — the on-disk state stays at
      // the last clean boundary and a restart replays the step with
      // fresh, deterministic queries.
      result.status = Status::Cancelled(
          "campaign aborted mid-step " + std::to_string(steps_taken_) +
          "; step discarded, checkpoint remains at step " +
          std::to_string(steps_taken_ - 1));
      break;
    }
    if (!tripped) {
      consecutive_rollbacks = 0;
      result.status = SaveCheckpoint(checkpoint_path);
      if (!result.status.ok()) break;
      // The step is durable from this point on; only now may the fleet
      // journal (or any other observer) claim it as committed progress.
      if (step_committed_) step_committed_(result.stats.back());
      continue;
    }

    // Self-healing: discard the poisoned update by restoring the
    // last-good checkpoint (parameters, Adam moments, RNG, best episode
    // — bit-identical), then burn the tripped step's index so the retry
    // issues fresh reward queries instead of deterministically
    // replaying the same fault stream.
    const std::size_t burned_step = steps_taken_;
    result.status = LoadCheckpoint(checkpoint_path);
    if (!result.status.ok()) break;
    steps_taken_ = burned_step;
    ++result.rollbacks;
    ++consecutive_rollbacks;
    static obs::Counter* const rollbacks_total =
        obs::MetricsRegistry::Global().GetCounter(
            "poisonrec_ppo_rollbacks_total");
    rollbacks_total->Increment();
    if (event_log_ != nullptr) {
      obs::JsonObjectBuilder b;
      b.Str("type", "rollback")
          .Int("step", burned_step)
          .Str("verdict", verdict)
          .Int("consecutive", consecutive_rollbacks);
      event_log_->Append(std::move(b).Finish());
    }
    if (consecutive_rollbacks > config_.guard.max_rollbacks) {
      result.status = Status::FailedPrecondition(
          "guard rollback budget exhausted (" +
          std::to_string(consecutive_rollbacks) +
          " consecutive rollbacks at step " + std::to_string(burned_step) +
          "); last verdict: " + verdict);
      break;
    }
    // Adaptive backoff: a smaller step size and a tighter clip make the
    // retried update less likely to diverge the same way.
    optimizer_->set_lr(std::max(kMinRollbackLearningRate,
                                optimizer_->lr() * kRollbackBackoff));
    config_.clip_epsilon = std::max(kMinRollbackClipEpsilon,
                                    config_.clip_epsilon * kRollbackBackoff);
    POISONREC_LOG(Warning)
        << "rolled back step " << burned_step << " (" << verdict
        << "); lr now " << optimizer_->lr() << ", clip epsilon now "
        << config_.clip_epsilon << " (" << consecutive_rollbacks << "/"
        << config_.guard.max_rollbacks << " consecutive rollbacks)";
  }
  result.incidents = guard_incidents_ - baseline_incidents;
  return result;
}

}  // namespace poisonrec::core
