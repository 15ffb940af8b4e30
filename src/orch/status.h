// Fleet status aggregation: folds the three durable artefact families a
// running fleet leaves on disk into one queryable model, read-only and
// from any process (the `poisonrec fleet --status` backend):
//
//   * the journal family (orch/journal.h) — authoritative campaign
//     lifecycle state, merged token-aware across workers;
//   * live lease files (orch/lease.h)     — current ownership, fencing
//     tokens, and heartbeat freshness;
//   * worker status snapshots             — `<telemetry>/<w>.status.json`
//     integrity-framed heartbeats published by orch/fleet.h, carrying
//     per-campaign live progress (step/reward/rate) and the worker's
//     obs::Metrics registry.
//
// Damage tolerance: every input is allowed to be missing, torn, or
// corrupt — a half-published snapshot, a bit-rotted file, or a foreign
// blob classifies into the hygiene counters and the rest of the fleet
// still renders. Collection never mutates fleet state.
//
// Staleness: a worker whose snapshot says `"shutdown":true` exited
// cleanly (healthy). Otherwise it is stale when its pid is gone (leases
// are flock-scoped, so the whole fleet shares one kernel and a pid
// probe is meaningful) or when its snapshot heartbeat is older than
// `stale_after_seconds` (default: max(3 x its publish period, 2s)).
// Degraded (ExitCode 2) means: a stale worker, a quarantined or failed
// campaign, or a stalled campaign (non-terminal but its lease expired
// or its owner is stale).
#ifndef POISONREC_ORCH_STATUS_H_
#define POISONREC_ORCH_STATUS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "orch/journal.h"
#include "util/status.h"

namespace poisonrec::orch {

enum class WorkerHealth : std::uint8_t {
  /// Snapshot fresh and the process is alive.
  kLive = 0,
  /// No clean-shutdown marker and the process is gone (or the
  /// heartbeat is older than the staleness window).
  kStale = 1,
  /// Published a final `"shutdown":true` snapshot — finished cleanly.
  kExited = 2,
};

const char* WorkerHealthName(WorkerHealth health);

/// One worker's most recent status snapshot, classified.
struct WorkerStatusRow {
  std::string worker_id;
  std::uint64_t pid = 0;
  std::string host;
  /// Monotonic publication counter within the worker process.
  std::uint64_t seq = 0;
  /// Wall-clock heartbeat (unix seconds) — the field staleness math
  /// trusts; the steady-clock uptime below is per-process only.
  double wall_unix = 0.0;
  double uptime_seconds = 0.0;
  /// now - wall_unix at collection time.
  double age_seconds = 0.0;
  double publish_period_seconds = 0.0;
  bool shutdown = false;
  WorkerHealth health = WorkerHealth::kLive;
  std::string snapshot_path;
  /// Counters from the worker's embedded metrics registry snapshot.
  std::map<std::string, double> counters;
};

/// One campaign folded across journal + lease + snapshots.
struct CampaignStatusRow {
  std::string id;
  CampaignState state = CampaignState::kPending;
  /// Lease owner when a lease file names one; otherwise the worker
  /// whose snapshot reports the campaign running; "" when unowned.
  std::string owner;
  std::uint64_t token = 0;
  std::uint64_t step = 0;
  /// Budgeted steps (from worker snapshots; 0 = unknown).
  std::uint64_t total = 0;
  double last_reward = 0.0;
  double best_reward = 0.0;
  std::uint64_t restarts = 0;
  std::uint64_t preemptions = 0;
  /// Committed steps/second from the owning worker's snapshot.
  double step_rate = 0.0;
  /// (total - step) / step_rate; negative = unknown.
  double eta_seconds = -1.0;
  /// A live worker's snapshot currently reports the campaign running.
  bool running = false;
  bool lease_held = false;
  bool lease_expired = false;
  /// Non-terminal campaign whose lease expired or whose owner is stale.
  bool stalled = false;
};

/// Per-source damage counters: inputs that failed to contribute, and
/// why. Damage classifies — it never aborts collection.
struct FleetStatusHygiene {
  std::size_t snapshots_ok = 0;
  /// Integrity footer absent / length wrong (interrupted publish).
  std::size_t snapshots_torn = 0;
  /// Footer intact, checksum wrong (bit rot).
  std::size_t snapshots_corrupt = 0;
  /// Framed and checksummed but not a parseable worker_status object.
  std::size_t snapshots_invalid = 0;
  std::size_t leases_ok = 0;
  std::size_t leases_damaged = 0;
  JournalHygiene journal;
};

struct FleetStatus {
  /// Sorted by worker id.
  std::vector<WorkerStatusRow> workers;
  /// Sorted by campaign id.
  std::vector<CampaignStatusRow> campaigns;
  FleetStatusHygiene hygiene;
  std::size_t workers_live = 0;
  std::size_t workers_stale = 0;
  std::size_t workers_exited = 0;
  /// Campaign count per CampaignStateName.
  std::map<std::string, std::size_t> campaigns_by_state;
  /// Sum of running campaigns' step rates (committed steps/second).
  double aggregate_step_rate = 0.0;
  /// Counters summed across every worker's registry snapshot (fault
  /// injections, defense trips, fleet restarts, ... — one fleet-wide
  /// view of what per-process registries fragment).
  std::map<std::string, double> counters;
  /// Human-readable reasons the fleet counts as degraded; empty means
  /// healthy. Mirrors the ExitCode contract.
  std::vector<std::string> degraded_reasons;
  /// Collection time (unix seconds) all age math used.
  double collected_wall_unix = 0.0;

  bool degraded() const { return !degraded_reasons.empty(); }
  /// 0 healthy, 2 degraded (same vocabulary as fleet/fsck exits).
  int ExitCode() const { return degraded_reasons.empty() ? 0 : 2; }
};

struct FleetStatusOptions {
  /// Journal base path; the whole sibling family is merged.
  std::string journal_path = "results/fleet_journal.jsonl";
  /// Leases are read from LeaseDir(checkpoint_dir), where every worker
  /// of the fleet keeps them.
  std::string checkpoint_dir = "results/fleet_checkpoints";
  /// Empty derives `<checkpoint_dir>/telemetry` (TelemetryDir).
  std::string telemetry_dir;
  /// Heartbeat age (seconds) past which a live-pid worker still counts
  /// stale; 0 derives max(3 x the worker's publish period, 2s).
  double stale_after_seconds = 0.0;
  /// Test seams: wall clock (unix seconds) and pid liveness probe.
  std::function<double()> now;
  std::function<bool(std::uint64_t)> pid_alive;
};

/// The worker status snapshot directory: `telemetry_dir` when set, else
/// `<checkpoint_dir>/telemetry`. Workers publish there and
/// CollectFleetStatus reads there.
std::string TelemetryDir(const std::string& checkpoint_dir,
                         const std::string& telemetry_dir);

/// Collects and classifies fleet state. Missing/damaged inputs land in
/// hygiene counters and degraded_reasons, never in a failure — the
/// status surface must work best during incidents.
FleetStatus CollectFleetStatus(const FleetStatusOptions& options);

/// Machine-readable export (validated by
/// `tools/validate_telemetry.py --fleet-status`).
std::string FleetStatusJson(const FleetStatus& status);

/// Human-readable cluster table + rollups for the terminal.
std::string FormatFleetStatusTable(const FleetStatus& status);

}  // namespace poisonrec::orch

#endif  // POISONREC_ORCH_STATUS_H_
