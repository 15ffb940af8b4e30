// Per-campaign supervisor: wraps one PoisonRec attack campaign
// (core::PoisonRecAttacker::TrainGuarded) in a fault-tolerant lifecycle.
//
// The supervisor owns the campaign's CancelToken, heartbeat clock and
// soft-stop flag. It builds the environment stack (ranker ->
// AttackEnvironment -> FaultyEnvironment -> DefendedEnvironment) fresh
// for every attempt, resumes from the campaign's newest intact
// checkpoint at or below its lease token, and classifies
// TrainGuarded's exit status:
//
//   OK                   -> done
//   kCancelled + fenced          -> lease lost to a sibling worker: stop
//                           WITHOUT journaling (any record would itself
//                           be a stale write); the new owner's journal
//                           is authoritative
//   kCancelled + fleet stop      -> checkpointed (graceful shutdown;
//                           resumable — rerunning the fleet reschedules
//                           it)
//   kCancelled + preempt request -> preempted (resumable: the scheduler
//                           re-queues it behind the higher-priority
//                           campaign; journals the `preempted` state)
//   kCancelled + watchdog abort  -> bounded restart from the checkpoint
//                           (decorrelated-jitter backoff), then
//                           quarantine once the restart budget is spent
//   kResourceExhausted   -> quarantine immediately (pool exhausted is
//   kFailedPrecondition     deterministic — a restart replays the same
//                           ban/rollback stream; the circuit breaker
//                           isolates the campaign instead of burning
//                           restarts)
//   abort with allow_restart=false (deadline) -> quarantine
//   anything else        -> restart if budget remains, else failed
//
// Every transition is journaled (orch/journal.h) before the supervisor
// moves on, and committed steps are journaled from the attacker's
// step-commit callback — strictly after the step's checkpoint is
// durable. The supervisor holds a campaign lease (orch/lease.h):
// checkpoints are published to the token-suffixed path
// `<id>.t<token>.ckpt` (a zombie's stale-token saves can never clobber
// the new owner's file) and the lease is validated before every journal
// commit, so a fenced-out worker stops within one step boundary.
#ifndef POISONREC_ORCH_SUPERVISOR_H_
#define POISONREC_ORCH_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "orch/journal.h"
#include "orch/lease.h"
#include "orch/spec.h"
#include "util/cancel.h"
#include "util/retry.h"

namespace poisonrec::orch {

/// Why a supervisor was asked to stop at the next step boundary.
enum class SoftStopKind : int {
  kNone = 0,
  /// Fleet-wide graceful shutdown (checkpointed, resumable).
  kShutdown = 1,
  /// Worker handed to a higher-priority campaign (preempted, re-queued).
  kPreempt = 2,
  /// Lease lost to a sibling worker (stop writing immediately).
  kFenced = 3,
};

/// A checkpoint file name split into campaign id and fencing token:
/// `<id>.t<N>.ckpt` is (id, N) and a plain `<id>.ckpt` (written before
/// every fleet held leases) is (id, 0). nullopt for names that do not
/// end in `.ckpt`. A name like `a.t5.ckpt` parses as (a, 5), although
/// it is also campaign `a.t5`'s plain checkpoint; ListCheckpoints lists
/// it for both.
struct CheckpointName {
  std::string campaign_id;
  std::uint64_t token = 0;
};
std::optional<CheckpointName> ParseCheckpointName(
    const std::string& filename);

/// Checkpoints of campaign `id` in `dir`, highest fencing token first:
/// every `<id>.t<N>.ckpt`, plus a plain `<id>.ckpt` as token 0. Missing
/// dir = empty list.
std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& dir, const std::string& id);

/// `<checkpoint_dir>/corrupt`: where supervisors move damaged
/// checkpoints, out of the resume path but kept for `poisonrec fsck`.
std::string QuarantineDir(const std::string& checkpoint_dir);

struct SupervisorOptions {
  /// Directory holding the campaign's `<id>.t<token>.ckpt` files, one
  /// per ownership epoch.
  std::string checkpoint_dir = "checkpoints";
  /// Journal for lifecycle records; nullptr journals nothing (tests).
  FleetJournal* journal = nullptr;
  /// Fleet-wide graceful-shutdown flag (soft stop at step boundaries);
  /// nullptr when the campaign runs standalone. Not owned. Mirrored
  /// into the supervisor's own soft-stop flag from the heartbeat hook.
  const std::atomic<bool>* fleet_stop = nullptr;
  /// Replayed journal state (terminal campaigns are not re-run;
  /// unfinished ones resume from their newest checkpoint that the
  /// journal's committed steps cover).
  std::optional<CampaignReplay> replay;
  /// Campaign lease manager (required; not owned). `lease_token` must
  /// hold the token Acquire returned.
  LeaseManager* leases = nullptr;
  std::uint64_t lease_token = 0;
  /// Preemptions already charged against spec.max_preemptions (carried
  /// across re-queues by the scheduler).
  std::uint64_t preemptions = 0;
  /// Test seam: how the campaign's per-query retry backoffs sleep
  /// ({} = really sleep, interruptible by the supervisor's cancel token).
  SleepFn retry_sleep;
  /// Test seam: how restart backoffs sleep ({} = really sleep).
  SleepFn restart_sleep;
};

/// Final (or recovered) state of one supervised campaign: the folded
/// journal view (state, committed steps and rewards, restarts, best
/// reward, detail, and `token`, the fencing token the outcome's journal
/// records carried) plus what only a run knows.
struct CampaignOutcome : CampaignReplay {
  std::string id;
  std::uint64_t rollbacks = 0;
  double wall_seconds = 0.0;
  /// True when the outcome was recovered from the journal without
  /// re-running (terminal state before this process started).
  bool recovered_from_journal = false;
  /// True when the campaign was interrupted by a fleet shutdown and is
  /// resumable from its checkpoint.
  bool interrupted = false;
  /// Times the campaign was preempted (spec.max_preemptions caps this).
  std::uint64_t preemptions = 0;
  /// Damaged (torn/corrupt/incompatible) checkpoints moved to
  /// QuarantineDir during resume; each costs a fallback to the
  /// next-older candidate (or a from-scratch replay), never a
  /// silently-trusted load.
  std::uint64_t checkpoints_quarantined = 0;
  /// True when this worker lost the campaign lease mid-run: the outcome
  /// is NOT authoritative — the seizing sibling's journal is.
  bool fenced = false;
  /// A sibling worker owned (or finished) this campaign; the outcome
  /// was reconstructed from the merged journals, not from a local run.
  /// Set by the orchestrator.
  bool sibling_owned = false;
};

class CampaignSupervisor {
 public:
  /// `dataset` (the shared clean log) must outlive the supervisor.
  CampaignSupervisor(const CampaignSpec& spec, const data::Dataset* dataset,
                     SupervisorOptions options);

  /// Runs the campaign to a terminal or resumable state. Call once (the
  /// scheduler builds a fresh supervisor per re-queue).
  CampaignOutcome Run();

  // -- Watchdog interface (thread-safe; orch/fleet.h) -----------------------

  /// Hard-cancels the running attempt. allow_restart=true (stall) lets
  /// the restart budget apply; false (deadline exceeded) quarantines.
  void Abort(const std::string& reason, bool allow_restart);

  /// Asks the campaign to stop at its next step boundary (the in-flight
  /// step is checkpointed and journaled first). First request wins;
  /// returns false if a stop was already pending. kFenced additionally
  /// fires the cancel token — a fenced worker must not keep writing
  /// even mid-step.
  bool RequestSoftStop(SoftStopKind kind);

  /// True while Run is between its first and last journal record.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once a soft stop (any kind) is pending or the campaign was
  /// fenced — the watchdog skips such supervisors as preemption victims.
  bool stop_pending() const {
    return soft_stop_.load(std::memory_order_acquire);
  }

  /// Seconds since the attacker last signalled liveness (heartbeats fire
  /// at step entry and after each phase).
  double SecondsSinceHeartbeat() const;

  /// Seconds since Run started (spans restarts).
  double SecondsSinceStart() const;

  const CampaignSpec& spec() const { return spec_; }
  std::uint64_t lease_token() const { return options_.lease_token; }

  // -- Status-snapshot interface (thread-safe; the orch/fleet.h worker
  //    status publisher reads these while the campaign runs) ----------------

  /// Committed (checkpoint-durable) step count — seeded from the
  /// replayed journal, advanced by the step-commit callback strictly
  /// after each step's checkpoint and journal record land.
  std::uint64_t committed_steps() const {
    return committed_steps_.load(std::memory_order_acquire);
  }
  /// Mean reward of the most recently committed step (0 before any).
  double last_committed_reward() const {
    return last_reward_.load(std::memory_order_acquire);
  }
  double best_reward_so_far() const {
    return best_reward_live_.load(std::memory_order_acquire);
  }
  /// Committed steps per wall-clock second since Run started, counting
  /// only this run's commits (resumed steps are excluded). 0 until the
  /// first commit of this run — the status ETA stays "unknown" rather
  /// than extrapolating from another epoch's rate.
  double CommittedStepRate() const;

  /// Path checkpoints are published to: `<id>.t<lease token>.ckpt`.
  std::string CheckpointPath() const;

 private:
  /// One attempt: build the stack, resume from checkpoint, TrainGuarded.
  Status RunAttempt(CampaignOutcome* outcome);
  void Journal(CampaignState state, std::uint64_t step, double reward,
               double best_reward, std::uint64_t restarts,
               const std::string& detail);
  std::string TakeAbortReason();
  /// Restart backoff honouring the fleet stop flag and soft stops.
  void SleepForRestart(double seconds);
  /// Resume candidates, newest first: every checkpoint at or below our
  /// token (the seized owner's frontier first, then older epochs, then
  /// a plain `<id>.ckpt`). RunAttempt walks the list so a damaged
  /// frontier falls back to the previous epoch's checkpoint instead of
  /// costing the whole campaign.
  std::vector<std::string> FindResumeCheckpoints() const;
  /// Moves a damaged checkpoint into QuarantineDir so it
  /// stops being a resume candidate but stays available for forensics
  /// (`poisonrec fsck` reports it). Falls back to removal when the
  /// move fails. Returns the quarantine path ("" when removed).
  std::string QuarantineCheckpoint(const std::string& path) const;
  bool FleetStopRaised() const {
    return options_.fleet_stop != nullptr &&
           options_.fleet_stop->load(std::memory_order_acquire);
  }

  CampaignSpec spec_;
  const data::Dataset* dataset_;
  SupervisorOptions options_;
  CancelToken cancel_;
  std::atomic<bool> running_{false};
  /// Per-campaign soft stop observed by the attacker between steps.
  std::atomic<bool> soft_stop_{false};
  std::atomic<int> soft_stop_kind_{static_cast<int>(SoftStopKind::kNone)};
  std::atomic<std::uint64_t> start_ticks_{0};
  std::atomic<std::uint64_t> heartbeat_ticks_{0};
  /// Live progress mirrors for the status-snapshot interface.
  std::atomic<std::uint64_t> committed_steps_{0};
  std::atomic<std::uint64_t> run_start_steps_{0};
  std::atomic<double> last_reward_{0.0};
  std::atomic<double> best_reward_live_{0.0};
  std::atomic<bool> abort_allow_restart_{true};
  mutable std::mutex mu_;
  std::string abort_reason_;
};

}  // namespace poisonrec::orch

#endif  // POISONREC_ORCH_SUPERVISOR_H_
