// Fleet orchestrator: runs a FleetPlan's campaigns under supervision
// with bounded concurrency, a stall/deadline watchdog, a crash-durable
// journal, priority preemption, and a consolidated report. Every run is
// a lease-holding worker: N orchestrator processes cooperate on one
// plan over a shared journal/checkpoint/lease directory (orch/lease.h),
// and a single process is simply a one-worker fleet.
//
// Lifecycle of one `poisonrec fleet` run:
//
//   1. Validate the plan and the lease TTL, then create the checkpoint
//      and lease directories.
//   2. Replay the journal family (every worker's `<stem>.<worker><ext>`
//      file, merged fencing-token-aware): campaigns already terminal
//      (done/quarantined/failed) are reported as recovered without
//      re-running; unfinished ones are re-scheduled from their last
//      durable checkpoint. A run always continues the state dir it is
//      pointed at; a fresh sweep needs a fresh journal and checkpoint
//      dir.
//   3. Workers claim the highest-priority ready campaign (plan order as
//      tiebreak) by acquiring its lease. A campaign held by a live
//      sibling is left to it; an expired lease (a dead or stopped
//      sibling, or this command's own earlier run killed without a
//      stable worker id) is seized with an incremented fencing token
//      after re-merging the journals.
//   4. A watchdog thread (condition-variable wait, so shutdown wakes it
//      immediately) polls running supervisors: stall -> hard cancel +
//      restart budget; deadline overrun -> quarantine. It also renews
//      held leases every ttl/3, ingests --submit-dir campaign files,
//      and drives preemption: when a higher-priority campaign is ready
//      and every worker is busy, the lowest-priority running campaign
//      is soft-stopped at its next step boundary, journals `preempted`,
//      and is re-queued (spec.max_preemptions caps how often).
//   5. RequestShutdown (threads) / RequestShutdownFromSignal (signal
//      handlers) soft-stop the fleet: running campaigns checkpoint at
//      the next step boundary and journal `checkpointed`; queued ones
//      stay pending. Both resume when the same command runs again.
//   6. Write results/fleet_report.{json,csv}. The final report merges
//      every worker's journal, so campaigns finished by siblings appear
//      with their real states.
//
// Exit-code contract (FleetResult::ExitCode): 0 = every campaign done;
// 2 = partial (quarantined, failed, interrupted, or still owned by a
// live sibling); 1 = fatal orchestrator error.
#ifndef POISONREC_ORCH_FLEET_H_
#define POISONREC_ORCH_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "orch/journal.h"
#include "orch/lease.h"
#include "orch/spec.h"
#include "orch/supervisor.h"
#include "util/retry.h"
#include "util/status.h"

namespace poisonrec::orch {

struct FleetOptions {
  /// Base path of the JSONL write-ahead journal family: each worker
  /// appends to its own `<stem>.<worker id><ext>` file, and every run
  /// replays the merged family before scheduling.
  std::string journal_path = "results/fleet_journal.jsonl";
  /// Directory of per-campaign checkpoints, `<id>.t<token>.ckpt` (one
  /// per lease epoch), plus the `leases/`, `corrupt/` and (by default)
  /// `telemetry/` directories.
  std::string checkpoint_dir = "results/fleet_checkpoints";
  /// Consolidated report paths; empty skips that format.
  std::string report_json_path = "results/fleet_report.json";
  std::string report_csv_path = "results/fleet_report.csv";
  /// Campaigns running at once. Campaign internals are single-threaded
  /// (orch/spec.h MakeAttackerConfig), so this is the fleet's only
  /// parallelism knob.
  std::size_t max_concurrent = 2;
  /// Watchdog poll cadence. Small enough that sub-second stall timeouts
  /// in tests fire promptly. Programmatic shutdown does not wait for it
  /// (condition variables wake immediately); signal-handler shutdown
  /// latency is bounded by one poll.
  double watchdog_poll_seconds = 0.02;
  /// Worker identity in lease files, journal records, the journal file
  /// name and the status snapshot; empty uses DefaultWorkerId()
  /// (`w<pid>-<nonce>`). A stable id lets a restart after kill -9
  /// re-acquire its own leases at once instead of waiting out the TTL.
  std::string worker_id;
  /// Lease heartbeat TTL: a lease not renewed for this long counts as
  /// abandoned and may be seized by a sibling. Must be finite and > 0.
  double lease_ttl_seconds = 2.0;
  /// Directory watched for late campaign submissions (`*.json`, one
  /// ParseCampaignSpecText object per file). Empty disables. Each file
  /// is ingested once; a high-priority submission preempts a running
  /// lower-priority campaign when all workers are busy.
  std::string submit_dir;
  /// Periodically publish a durable worker status snapshot
  /// (`<telemetry dir>/<worker>.status.json`, integrity-framed via
  /// util/fsio) that `poisonrec fleet --status` aggregates. Snapshots
  /// carry worker identity, a wall-clock heartbeat, per-campaign
  /// progress (state/step/reward/rate) and the obs::Metrics registry.
  bool publish_status = true;
  /// Snapshot directory; empty derives `<checkpoint_dir>/telemetry`
  /// (orch/status.h TelemetryDir) so every worker lands in one place
  /// without extra flags.
  std::string telemetry_dir;
  /// Publication cadence (rides the watchdog thread; a final snapshot
  /// with `"shutdown":true` is written when Run finishes either way).
  double status_publish_seconds = 0.25;
  /// Test seams forwarded to every supervisor ({} = really sleep).
  SleepFn retry_sleep;
  SleepFn restart_sleep;
};

struct FleetResult {
  std::string plan_name;
  /// One outcome per campaign: plan order, then submissions in arrival
  /// order.
  std::vector<CampaignOutcome> outcomes;
  std::size_t done = 0;
  std::size_t quarantined = 0;
  std::size_t failed = 0;
  /// Interrupted by shutdown (resumable: checkpointed, preempted-but-
  /// not-rescheduled, or still pending) or still running on a sibling.
  std::size_t interrupted = 0;
  /// Terminal outcomes recovered from the journal without re-running
  /// (including campaigns a sibling worker finished).
  std::size_t recovered = 0;
  /// Total preemption soft-stops across campaigns this run.
  std::size_t preemptions = 0;
  /// Campaigns this worker lost mid-run to a lease seizure.
  std::size_t fenced = 0;
  /// Campaigns owned by sibling workers.
  std::size_t sibling_owned = 0;
  /// Journal-merge hygiene from the final replay backing this report.
  JournalHygiene journal;
  /// Damaged checkpoints moved to QuarantineDir by supervisors during
  /// resume this run (summed over outcomes).
  std::uint64_t checkpoints_quarantined = 0;
  double wall_seconds = 0.0;
  /// Orchestrator-level status (plan validation, journal/report I/O).
  /// Individual campaign failures do NOT make this non-OK.
  Status status;
  /// 1 fatal, 2 partial fleet, 0 all campaigns done.
  int ExitCode() const;
};

class FleetOrchestrator {
 public:
  /// `dataset` must outlive the orchestrator; the plan is copied.
  FleetOrchestrator(FleetPlan plan, const data::Dataset* dataset,
                    FleetOptions options);

  /// Runs the fleet to completion (or to shutdown). Call once.
  FleetResult Run();

  /// Graceful shutdown from another thread: running campaigns stop at
  /// the next step boundary, already checkpointed. Wakes the scheduler
  /// and watchdog immediately (condition-variable notify), so shutdown
  /// latency does not depend on watchdog_poll_seconds.
  void RequestShutdown();

  /// Async-signal-safe shutdown: a single atomic store, no locking or
  /// notification (pthread_cond_signal is not signal-safe). Workers and
  /// watchdog observe it within one watchdog poll.
  void RequestShutdownFromSignal() {
    stop_.store(true, std::memory_order_release);
  }

  bool shutdown_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Submits a late campaign while Run is active (also the backend of
  /// --submit-dir). The campaign joins the ready queue at its priority;
  /// duplicate ids are rejected. Thread-safe.
  Status Submit(CampaignSpec spec);

 private:
  /// Scheduler slot of one campaign.
  enum class Slot {
    kReady,    // waiting for a worker (fresh, resumed, or re-queued)
    kRunning,  // a local supervisor is executing it
    kDone,     // outcome final for this worker (terminal / interrupted)
    kSibling,  // a sibling worker holds the lease
  };
  struct Entry {
    CampaignSpec spec;
    Slot slot = Slot::kReady;
    /// Live supervisor while kRunning (shared_ptr: the watchdog uses it
    /// outside the scheduler lock).
    std::shared_ptr<CampaignSupervisor> supervisor;
    CampaignOutcome outcome;
    bool has_outcome = false;
    /// Journal state carried into the next (re)start of this campaign.
    std::optional<CampaignReplay> replay;
    /// Preemptions charged so far (spec.max_preemptions is the cap).
    std::uint64_t preemptions = 0;
    /// Ticks of the last successful lease renewal (watchdog cadence).
    std::uint64_t last_renew_ticks = 0;
  };

  Status WriteJsonReport(const FleetResult& result) const;
  Status WriteCsvReport(const FleetResult& result) const;
  /// One scheduler worker: claim -> run -> classify, until drained.
  void WorkerLoop();
  /// Watchdog body: stall/deadline aborts, lease renewal, preemption,
  /// submit-dir ingestion. Returns when ShutdownWatchdog was called.
  void WatchdogLoop();
  void ShutdownWatchdog();
  /// Picks the best ready entry (highest priority, arrival tiebreak);
  /// nullptr when none. Caller holds sched_mu_.
  Entry* BestReadyLocked();
  /// Re-merge every journal file and fold fresh sibling progress into
  /// kSibling entries (terminal ones become kDone). Caller holds
  /// sched_mu_.
  void RefreshSiblingsLocked();
  /// Scan submit_dir for new `*.json` campaign files. A file is taken
  /// once it parses; one that does not (a drop caught mid-write) is read
  /// again on every poll.
  void IngestSubmissions();
  /// Journal merge of the whole worker family.
  StatusOr<JournalReplayResult> MergedReplay() const;
  /// Serializes this worker's status snapshot (takes sched_mu_).
  std::string WorkerStatusJson(bool shutdown);
  /// Durably publishes the snapshot to
  /// `<telemetry dir>/<worker id>.status.json`. Failures are logged,
  /// never fatal — observability must not take the fleet down.
  void PublishWorkerStatus(bool shutdown);

  FleetPlan plan_;
  const data::Dataset* dataset_;
  FleetOptions options_;
  std::atomic<bool> stop_{false};
  FleetJournal journal_;
  std::unique_ptr<LeaseManager> leases_;

  /// Scheduler state: entries are stable (unique_ptr) so supervisors
  /// and the watchdog can hold references across queue mutations.
  std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  std::vector<std::unique_ptr<Entry>> entries_;
  bool accepting_ = false;
  std::size_t idle_workers_ = 0;
  std::size_t worker_count_ = 0;

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  /// Submission files that parsed (each is submitted once), and the
  /// (size, mtime) last warned about for each file that did not yet.
  using SubmissionStamp =
      std::pair<std::uintmax_t, std::filesystem::file_time_type>;
  std::set<std::string> ingested_submissions_;
  std::map<std::string, SubmissionStamp> unparsed_submissions_;

  /// Status publication state (watchdog thread + Run tail only).
  std::uint64_t status_seq_ = 0;
  std::uint64_t last_status_ticks_ = 0;
  std::uint64_t run_start_ticks_ = 0;
};

}  // namespace poisonrec::orch

#endif  // POISONREC_ORCH_FLEET_H_
