// PoisonRec training loop (paper Algorithm 1). Each training step samples
// M episodes (N trajectories each) from the current policy, injects them
// into the black-box environment for RecNum rewards, then runs K epochs of
// PPO updates with the clipped surrogate objective (Eq. 7/9) on
// batch-normalized rewards (Eq. 8).
#ifndef POISONREC_CORE_PPO_H_
#define POISONREC_CORE_PPO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/account_pool.h"
#include "core/policy.h"
#include "core/trajectory.h"
#include "env/environment.h"
#include "nn/optimizer.h"
#include "obs/event_log.h"
#include "util/cancel.h"
#include "util/fsio.h"
#include "util/guard.h"
#include "util/retry.h"
#include "util/status.h"

namespace poisonrec::env {
class DefendedEnvironment;
}  // namespace poisonrec::env

namespace poisonrec::core {

struct PoisonRecConfig {
  /// M: episodes sampled per training step (paper: 32).
  std::size_t samples_per_step = 32;
  /// B: update batch size, B <= M (paper: 32).
  std::size_t batch_size = 32;
  /// K: PPO epochs per training step (paper: 3).
  std::size_t update_epochs = 3;
  /// Adam learning rate (paper: 2e-3).
  float learning_rate = 2e-3f;
  /// PPO clip ratio ε (paper: 0.1).
  float clip_epsilon = 0.1f;
  /// Global gradient-norm clip applied after backward (0 = disabled).
  float max_grad_norm = 5.0f;
  /// Training-stability guardrails: numerical anomaly monitors and the
  /// self-healing rollback policy of TrainGuarded (util/guard.h).
  GuardConfig guard;
  /// Evaluate the M independent reward queries of each step concurrently.
  /// Results are identical either way.
  bool parallel_rewards = false;
  /// Worker threads for the concurrent reward queries of
  /// `parallel_rewards` (0 = hardware concurrency); unused otherwise.
  /// Kernel-level GEMM threading, which the attacker's sampling and
  /// update run on, is a separate process knob: nn::SetNumThreads.
  std::size_t num_threads = 0;
  /// Per-query retry schedule (each of the M reward queries retries
  /// independently; the bare environment answers every first attempt).
  RetryPolicy retry;
  /// Replacement-account reserve for campaigns against an adaptive
  /// defender (env::DefendedEnvironment). With reserve_accounts > 0, the
  /// environment must be built with num_attackers = policy slots +
  /// reserve_accounts; the policy keeps its N slots and the pool remaps
  /// banned slots onto fresh reserve accounts (core/account_pool.h).
  AccountPoolConfig pool;
  PolicyConfig policy;
  std::uint64_t seed = 99;
};

/// Per-training-step telemetry (drives Figure 4/5 and the timing study).
struct TrainStepStats {
  std::size_t step = 0;
  double mean_reward = 0.0;
  double max_reward = 0.0;
  double min_reward = 0.0;
  double best_reward_so_far = 0.0;
  /// Mean clipped-surrogate loss over the K update epochs.
  double loss = 0.0;
  /// Wall-clock seconds for the full training step.
  double seconds = 0.0;
  /// Phase breakdown of `seconds`: episode rollouts (policy forward),
  /// black-box reward queries (ranker clone + retrain + top-k), and the
  /// K PPO update epochs (recompute + backward + Adam). Each phase is
  /// measured by its obs::TraceSpan, so the per-step trace and these
  /// numbers are one measurement. The bookkeeping between phases
  /// (imputation, defender sync, best-episode tracking) is accounted
  /// explicitly as `other_seconds`; the four always sum to `seconds`.
  double sample_seconds = 0.0;
  double query_seconds = 0.0;
  double update_seconds = 0.0;
  double other_seconds = 0.0;
  /// Fraction of sampled clicks on target items (Figure 5 statistic).
  double target_click_ratio = 0.0;
  /// Reward queries that still failed after exhausting the retry budget.
  std::size_t failed_queries = 0;
  /// Re-queries issued across all M reward queries of the step.
  std::size_t retries = 0;
  /// Failed queries whose reward was imputed with the batch mean (0 when
  /// the whole batch failed — nothing to impute from).
  std::size_t imputed_rewards = 0;
  /// Largest global gradient norm observed across the K update epochs,
  /// measured before clipping (PoisonRecConfig::max_grad_norm).
  double pre_clip_grad_norm = 0.0;
  /// Mean sampled policy entropy over the epochs: -log pi(a|s) averaged
  /// over the batch's decisions (0 when the update was skipped).
  double entropy = 0.0;
  /// Mean approx-KL(old || new) over the epochs: log pi_old - log pi_new
  /// averaged over the batch's decisions.
  double approx_kl = 0.0;
  /// What the stability guardrails tripped on this step (empty = clean;
  /// always empty when PoisonRecConfig::guard.enabled is false).
  GuardVerdict guard;
  /// Accounts the adaptive defender has permanently banned so far
  /// (cumulative; 0 when no DefendedEnvironment is attached).
  std::size_t banned_accounts = 0;
  /// Fresh replacement accounts left in the reserve (0 without a pool).
  std::size_t pool_remaining = 0;
  /// Trajectory slots still mapped to live accounts at the end of the
  /// step (equals N for an undefended campaign; 0 without defense/pool).
  std::size_t effective_attackers = 0;
};

/// Outcome of a self-healing TrainGuarded campaign.
struct GuardedTrainResult {
  /// Every attempted step, including the ones a rollback later discarded
  /// (those carry a tripped `TrainStepStats::guard`).
  std::vector<TrainStepStats> stats;
  /// Rollbacks performed (tripped steps whose update was discarded).
  std::size_t rollbacks = 0;
  /// Guard incidents recorded during this call: every tripped monitor,
  /// plus an account-pool exhaustion.
  std::size_t incidents = 0;
  /// OK when the campaign ran to completion; kFailedPrecondition when
  /// the consecutive-rollback budget was exhausted; an I/O error when
  /// checkpointing itself failed.
  Status status;
};

/// What one PpoUpdate did: the TrainStepStats fields of the same names,
/// and the guard monitor that stopped it, if one tripped.
struct PpoUpdateResult {
  double loss = 0.0;
  double entropy = 0.0;
  double approx_kl = 0.0;
  double pre_clip_grad_norm = 0.0;
  std::optional<GuardEvent> guard_event;
};

/// Algorithm 1's update: K epochs, each one Adam step (`optimizer` holds
/// `policy`'s parameters) on the clipped surrogate of Eq. 7/9 over B of
/// the M `episodes` (all when B >= M, else drawn with `rng`), with Eq. 8
/// advantages; slots `pool` reports dead (nullptr: none) are left out.
/// With config.guard.enabled the monitors run every epoch and sweep the
/// parameters and Adam moments after the last. Owns its autograd tape.
PpoUpdateResult PpoUpdate(const PoisonRecConfig& config, const Policy& policy,
                          nn::Adam* optimizer,
                          const std::vector<Episode>& episodes,
                          const AccountPool* pool, Rng* rng);

/// The PoisonRec attack agent: ties a Policy to an AttackEnvironment and
/// runs Algorithm 1.
class PoisonRecAttacker {
 public:
  /// The environment must outlive the attacker.
  PoisonRecAttacker(const env::AttackEnvironment* environment,
                    const PoisonRecConfig& config);

  /// One outer iteration of Algorithm 1 (sample M episodes, K PPO epochs).
  TrainStepStats TrainStep();

  /// Runs `steps` iterations; returns per-step stats.
  std::vector<TrainStepStats> Train(std::size_t steps);

  /// Self-healing variant of Train for unattended campaigns (requires
  /// config().guard.enabled). A last-good checkpoint is kept at
  /// `checkpoint_path` (saved before the first step and after every
  /// clean one). When a step trips a guard, the poisoned update is
  /// discarded by restoring that checkpoint (bit-identical: parameters,
  /// Adam moments, RNG), the learning rate and clip epsilon halve (down
  /// to fixed floors), and the step index is burned so the retry samples
  /// fresh reward queries instead of deterministically replaying the
  /// same fault stream. Burning the index means a rollback consumes one
  /// step of the campaign budget — the campaign always attempts exactly
  /// `steps` steps, so it cannot livelock. After `guard.max_rollbacks`
  /// consecutive rollbacks the campaign aborts with kFailedPrecondition;
  /// the step verdicts and the event stream's guard records hold the
  /// post-mortem either way.
  GuardedTrainResult TrainGuarded(std::size_t steps,
                                  const std::string& checkpoint_path);

  // -- Supervision hooks (src/orch) -----------------------------------------
  // A campaign supervisor wires these before Train/TrainGuarded so a
  // fleet watchdog can observe and interrupt the campaign from another
  // thread. All hooks are optional; nullptr/empty detaches.

  /// Hard-abort token. Polled at every step boundary and passed into the
  /// per-query retry loops, so a campaign parked in a fault-blackout
  /// backoff sleep unblocks the moment the token fires. TrainGuarded
  /// returns kCancelled and does NOT checkpoint the interrupted step —
  /// the on-disk checkpoint stays at the last clean boundary, which is
  /// exactly what a restart resumes from. Not owned.
  void SetCancelToken(const CancelToken* cancel) { cancel_ = cancel; }

  /// Soft-stop flag (graceful fleet shutdown). Checked only between
  /// steps: the in-flight step completes and — under TrainGuarded — is
  /// checkpointed before the loop returns kCancelled. Not owned.
  void SetStopFlag(const std::atomic<bool>* stop) { stop_flag_ = stop; }

  /// Liveness beacon for stall watchdogs: invoked at the start of every
  /// step and after each phase (sample, query, update). Must be cheap
  /// and thread-safe against concurrent readers of whatever it updates.
  void SetHeartbeat(std::function<void()> heartbeat) {
    heartbeat_ = std::move(heartbeat);
  }

  /// Invoked by TrainGuarded after a clean step has been checkpointed —
  /// i.e. once the step is durable and will not be rolled back. The
  /// fleet journal records step progress from exactly this point, so a
  /// journal record never claims progress the checkpoint doesn't have.
  void SetStepCommittedCallback(
      std::function<void(const TrainStepStats&)> callback) {
    step_committed_ = std::move(callback);
  }

  /// True when a supervisor has requested interruption (soft stop flag
  /// or hard cancel token).
  bool InterruptRequested() const {
    return (stop_flag_ != nullptr &&
            stop_flag_->load(std::memory_order_acquire)) ||
           (cancel_ != nullptr && cancel_->cancelled());
  }

  /// Attaches the unified campaign event stream (docs/observability.md).
  /// Every TrainStep then appends one {"type":"step",...} record, each
  /// guard incident a {"type":"guard",...} record, defender bans
  /// {"type":"ban",...}, and checkpoint saves/loads and TrainGuarded
  /// rollbacks {"type":"checkpoint"/"rollback",...}. Not owned;
  /// nullptr detaches. The registry metrics (poisonrec_ppo_*) are
  /// updated regardless — they are process-global.
  void SetEventLog(obs::EventLog* event_log) { event_log_ = event_log; }

  /// Highest-reward episode observed so far.
  const Episode& best_episode() const { return best_episode_; }

  /// The best attack found, as environment trajectories.
  std::vector<env::Trajectory> BestAttack() const {
    return ToEnvTrajectories(best_episode_.trajectories);
  }

  /// Routes all later reward queries through `platform`, stacked over the
  /// environment this attacker was built with. Each query retries per
  /// `config().retry`; one that still fails is imputed with the batch
  /// mean and kept out of Eq. 8. Pass a DefendedEnvironment platform again
  /// as `defender`: its bans feed the account pool, its state is
  /// checkpointed, and queries run one at a time (its ban state is
  /// order-dependent) so runs are bit-identical at any thread count.
  /// `retry_sleep` replaces real backoff sleeps; tests pass a fake clock.
  void AttachPlatform(const env::RewardSource* platform,
                      env::DefendedEnvironment* defender = nullptr,
                      SleepFn retry_sleep = {});

  /// OK while the campaign can continue; kResourceExhausted once the
  /// account pool drained below pool.min_live_attackers. Train and
  /// TrainGuarded stop stepping when this is not OK.
  const Status& campaign_status() const { return campaign_status_; }

  /// The account pool (nullptr unless config().pool.reserve_accounts > 0).
  const AccountPool* account_pool() const { return pool_.get(); }

  /// Trajectory slots the policy controls (N of the paper; smaller than
  /// the environment's account space when a reserve pool is configured).
  std::size_t num_slots() const { return num_slots_; }

  /// Persists everything TrainStep depends on — policy parameters, Adam
  /// moments, RNG state, steps taken, best episode — so a crashed run can
  /// resume bit-identically. The write is atomic (tmp file + rename): a
  /// crash mid-write never corrupts an existing checkpoint.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a SaveCheckpoint file into this attacker. The attacker must
  /// have been constructed with the same configuration and environment
  /// shape (parameter shapes are validated). A missing file is kIoError;
  /// a damaged one kDataLoss, a foreign or mismatched one
  /// kInvalidArgument (see CheckpointPayload); either leaves the
  /// attacker unchanged.
  Status LoadCheckpoint(const std::string& path);

  Policy& policy() { return *policy_; }
  const Policy& policy() const { return *policy_; }
  /// Exposed so tools and tests can inspect or corrupt optimizer state
  /// (the guardrails sweep its moments after every step).
  nn::Adam& optimizer() { return *optimizer_; }
  const PoisonRecConfig& config() const { return config_; }
  std::size_t steps_taken() const { return steps_taken_; }

 private:
  /// Body of TrainStep: sample, query and update phases, filling
  /// everything in `stats` but the step total.
  void RunStep(TrainStepStats* stats);

  /// Records a tripped guard into the step verdict and, through
  /// EmitGuardEvent, the incident count and event stream.
  void RecordGuardEvent(TrainStepStats* stats, GuardEvent event);

  /// Counts one guard incident and appends its {"type":"guard",...}
  /// record (when an event log is attached).
  void EmitGuardEvent(std::size_t step, const GuardEvent& event);

  /// Maps sampled trajectory slots onto live platform accounts for
  /// injection (identity without a pool); dead slots are not injected.
  std::vector<env::Trajectory> MapToAccounts(
      const std::vector<SampledTrajectory>& trajectories) const;

  /// Pulls the defender's ban list into the pool (remapping banned slots
  /// onto reserve accounts), fills the attrition fields of `stats`, and
  /// aborts the campaign (kResourceExhausted + a guard incident) when
  /// fewer than pool.min_live_attackers slots survive.
  void SyncDefenderState(TrainStepStats* stats);

  /// End-of-step telemetry fan-out: updates the process-global metrics
  /// registry, appends the {"type":"step",...} record, and emits one
  /// {"type":"ban",...} record per defender ban not yet streamed
  /// (rollback-safe: a restored defender shrinks ban_events(), and the
  /// emission cursor follows it down).
  void EmitStepTelemetry(const TrainStepStats& stats);

  /// Appends a {"type":"checkpoint","op":...} record (no-op when no
  /// event log is attached).
  void EmitCheckpointEvent(const char* op, const std::string& path,
                           bool ok) const;

  const env::AttackEnvironment* env_;
  const env::RewardSource* platform_;  // env_ until AttachPlatform
  env::DefendedEnvironment* defended_ = nullptr;  // the platform, if defended
  std::size_t num_slots_ = 0;
  std::unique_ptr<AccountPool> pool_;
  Status campaign_status_;
  SleepFn retry_sleep_;
  PoisonRecConfig config_;
  std::unique_ptr<Policy> policy_;
  std::unique_ptr<nn::Adam> optimizer_;
  Rng rng_;
  Episode best_episode_;
  std::size_t steps_taken_ = 0;
  /// Guard incidents ever recorded (not checkpointed; TrainGuarded
  /// reports the increase over its own run).
  std::size_t guard_incidents_ = 0;
  const CancelToken* cancel_ = nullptr;
  const std::atomic<bool>* stop_flag_ = nullptr;
  std::function<void()> heartbeat_;
  std::function<void(const TrainStepStats&)> step_committed_;
  obs::EventLog* event_log_ = nullptr;
  /// How many of defended_->ban_events() have been streamed already.
  std::size_t ban_events_emitted_ = 0;
};

/// The checkpoint frame, the one check LoadCheckpoint and `poisonrec
/// fsck` (orch/fsck.h) share: `file` (read from `path`) must open with
/// the "PRCK" header at the current version and close with a verified
/// util/fsio.h integrity footer. Returns the payload between the two.
/// A file shorter than the header, or with a torn footer, is kDataLoss
/// and kTorn; a foreign magic or another version is kInvalidArgument and
/// kCorrupt; a checksum mismatch is kDataLoss and kCorrupt. `*integrity`
/// (optional) receives the class either way; messages start "<path>: ".
StatusOr<std::string_view> CheckpointPayload(
    std::string_view file, const std::string& path,
    FileIntegrity* integrity = nullptr);

/// The steps taken that the checkpoint at `path` records, after the
/// CheckpointPayload frame check, without loading it into an attacker.
/// A missing file is kIoError; a damaged or foreign one fails as
/// CheckpointPayload does.
StatusOr<std::uint64_t> CheckpointSteps(const std::string& path);

}  // namespace poisonrec::core

#endif  // POISONREC_CORE_PPO_H_
