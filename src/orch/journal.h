// Crash-durable fleet journal: the orchestrator's write-ahead record of
// every campaign's lifecycle, one JSONL line per transition, backed by
// obs::EventLog (O_APPEND single-write appends — everything up to the
// last completed append survives kill -9, and concurrent appends never
// interleave mid-line).
//
// State machine per campaign:
//
//   pending ──> running ──> checkpointed ──> ... ──> done
//                  │  ▲           │                   (terminal)
//                  │  │           └──(more steps)──┐
//                  │  │                            │
//                  │  └── preempted (resumable: a higher-priority
//                  │       campaign needed the worker; the victim
//                  │       checkpointed at its step boundary and is
//                  │       re-queued — orch/fleet.h priority preemption)
//                  │
//                  ├──> quarantined (terminal: circuit breaker — stalls
//                  │                 past the restart budget, deadline
//                  │                 exceeded, pool exhausted, rollback
//                  │                 budget exhausted)
//                  └──> failed      (terminal: unexpected error)
//
// `checkpointed` records are appended from the attacker's step-commit
// callback, i.e. strictly after the campaign checkpoint for that step
// is durable on disk — the journal never claims progress the checkpoint
// doesn't have. Each carries (step, reward), so replay can reconstruct
// the committed reward sequence and a rerun fleet can verify
// bit-identical recovery.
//
// Fencing: every record carries the writer's lease token and owner id
// (orch/lease.h; token 0 = a `pending` record written before any lease
// was taken, or a journal from before every fleet held leases). Each
// worker appends to its own `<stem>.<worker>.jsonl` next to the
// configured journal path, and Replay() merges every sibling file.
//
// Replay folds the merged stream per campaign id with token-aware
// last-writer-wins: the campaign's authoritative state comes from its
// highest-token records (a fenced-out zombie's stale-token writes are
// counted in `stale_records` and cannot override the new owner); step
// rewards dedup by step index with the higher token winning the step
// (rewards are deterministic, so epochs agree where they overlap); a
// torn trailing line per file (the crash frontier) is tolerated, while
// malformed interior lines are counted in `malformed_lines` and
// surfaced in the fleet report instead of silently skipped.
#ifndef POISONREC_ORCH_JOURNAL_H_
#define POISONREC_ORCH_JOURNAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "util/status.h"

namespace poisonrec::orch {

enum class CampaignState : std::uint8_t {
  kPending = 0,
  kRunning = 1,
  /// Progress committed: the campaign checkpoint holds `step` steps.
  kCheckpointed = 2,
  /// Terminal: budget completed.
  kDone = 3,
  /// Terminal: the circuit breaker isolated a persistently failing
  /// campaign (stall/deadline/pool exhaustion/rollback budget) so it
  /// cannot sink the rest of the fleet.
  kQuarantined = 4,
  /// Terminal: unexpected error (orchestrator bug, I/O failure).
  kFailed = 5,
  /// Resumable: soft-stopped at a step boundary to hand its worker to a
  /// higher-priority campaign; re-queued by the scheduler.
  kPreempted = 6,
};

/// Stable snake_case name used in journal lines and reports.
const char* CampaignStateName(CampaignState state);
StatusOr<CampaignState> ParseCampaignState(const std::string& name);
/// done/quarantined/failed — states a resume must not re-run.
bool IsTerminal(CampaignState state);

/// One journal line.
struct CampaignJournalRecord {
  std::string campaign_id;
  CampaignState state = CampaignState::kPending;
  /// Steps committed to the campaign checkpoint so far.
  std::uint64_t step = 0;
  /// Mean reward of the step being committed (checkpointed records).
  double reward = 0.0;
  double best_reward = 0.0;
  std::uint64_t restarts = 0;
  /// Fencing token of the writer's campaign lease (0 = no lease held).
  std::uint64_t token = 0;
  /// Worker id of the writer ("" = no lease held).
  std::string owner;
  std::string detail;
};

/// Folded per-campaign view of a replayed journal.
struct CampaignReplay {
  CampaignState state = CampaignState::kPending;
  std::uint64_t steps_completed = 0;
  std::uint64_t restarts = 0;
  double best_reward = 0.0;
  /// Highest fencing token seen for the campaign: the authoritative
  /// ownership epoch. A resuming owner must acquire a token above it.
  /// (In a CampaignOutcome: the token its journal records carried.)
  std::uint64_t token = 0;
  std::string detail;
  /// step index -> committed mean reward, deduped (higher token wins a
  /// step; within an epoch the last record wins).
  std::map<std::uint64_t, double> step_rewards;
};

/// What merging a journal family had to skip or reject, reported by
/// the fleet report (FleetResult::journal) and the status surface
/// (FleetStatusHygiene::journal).
struct JournalHygiene {
  std::size_t files_merged = 0;
  /// Malformed lines in a file's interior — real corruption, surfaced
  /// in the fleet report (a torn FINAL line per file is expected after
  /// kill -9 and counted separately).
  std::uint64_t malformed_lines = 0;
  std::uint64_t torn_tail_lines = 0;
  /// Interior lines that still parse as JSON but fail their CRC32C
  /// line checksum (obs/crc32c.h framing) — bit rot that structural
  /// validation alone would have trusted. Skipped like malformed
  /// lines and surfaced separately in the fleet report.
  std::uint64_t corrupt_lines = 0;
  /// Records whose token was below the campaign's winning epoch —
  /// writes from fenced-out (seized) owners, rejected by replay.
  std::uint64_t stale_records = 0;
};

/// Result of merging one or more journal files.
struct JournalReplayResult : JournalHygiene {
  std::map<std::string, CampaignReplay> campaigns;
};

/// Append side. Thread-safe: concurrent Record calls serialize on the
/// underlying EventLog's per-line mutex; cross-process appends rely on
/// the EventLog O_APPEND single-write contract.
class FleetJournal {
 public:
  /// Opens the journal for appending: the recovery history of every
  /// run by this worker stays in one file.
  Status Open(const std::string& path);

  /// Appends one record (no-op returning false when closed).
  bool Record(const CampaignJournalRecord& record);

  void Close() { log_.Close(); }
  bool is_open() const { return log_.is_open(); }
  const std::string& path() const { return log_.path(); }
  std::uint64_t records_written() const { return log_.lines_written(); }

  /// The file worker `worker_id` appends to: `<stem>.<worker_id><ext>`
  /// beside `base_path`, so no two processes ever share a journal fd.
  static std::string WorkerJournalPath(const std::string& base_path,
                                       const std::string& worker_id);

  /// Sibling journal files of `base_path`: every `<stem>*<ext>` in its
  /// directory (the base file plus per-worker `<stem>.<worker><ext>`
  /// files), sorted by name for deterministic merge order. Missing
  /// files simply yield an empty list.
  static std::vector<std::string> ListJournalFiles(
      const std::string& base_path);

  /// Merges `paths` into per-campaign folded state (see the header
  /// comment for the token-aware fold rules). Unreadable files are an
  /// error; unknown record types are ignored.
  static StatusOr<JournalReplayResult> Replay(
      const std::vector<std::string>& paths);

 private:
  obs::EventLog log_;
};

}  // namespace poisonrec::orch

#endif  // POISONREC_ORCH_JOURNAL_H_
