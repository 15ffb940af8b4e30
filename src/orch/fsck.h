// Offline storage-integrity audit for a fleet state directory:
// `poisonrec fsck` walks the journal family, the campaign checkpoints
// and the lease files without running (or needing) any campaign, and
// classifies every artifact against the integrity framing that the
// write paths produce (obs/crc32c.h line checksums on JSONL records,
// util/fsio.h whole-file footers on checkpoints):
//
//   ok         intact (checksums verify; legacy unframed-but-parseable
//              artifacts also count as ok, with a note)
//   torn_tail  journal only: the final line of a file is damaged — the
//              expected kill -9 crash frontier; replay already tolerates
//              it, so this is repairable damage
//   torn       checkpoint published partially (footer absent or payload
//              length disagrees): an interrupted rename/write
//   corrupt    checksum mismatch with intact structure — bit rot — or a
//              foreign/incompatible file at the path
//   missing    the configured artifact does not exist at all
//
// Repairability is judged the way a resuming fleet would: a damaged
// checkpoint is repairable when an intact sibling checkpoint for the
// same campaign exists (the supervisor quarantines the bad file and
// falls back — orch/supervisor.h); a damaged lease is always repairable
// (the next acquire rewrites it once it has gone a TTL unrewritten); a
// torn journal tail is repairable (replay skips the frontier line);
// interior journal corruption is UNREPAIRABLE — those records are gone
// and replay can only count them.
//
// Exit-code contract (FsckReport::ExitCode): 0 = everything intact,
// 2 = damage found but every damaged artifact is repairable,
// 1 = at least one unrepairable artifact.
#ifndef POISONREC_ORCH_FSCK_H_
#define POISONREC_ORCH_FSCK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace poisonrec::orch {

struct FsckOptions {
  /// Base journal path; the whole sibling family `<stem>*<ext>` is
  /// audited (orch/journal.h ListJournalFiles). Empty skips journals.
  std::string journal_path;
  /// Directory of `<id>.ckpt` / `<id>.t<token>.ckpt` checkpoints; its
  /// QuarantineDir (prior quarantines) is listed as informational, and
  /// the leases in its LeaseDir are audited. Empty skips both.
  std::string checkpoint_dir;
};

enum class FsckArtifactKind : std::uint8_t {
  kJournal = 0,
  kCheckpoint = 1,
  kLease = 2,
  /// A previously quarantined checkpoint in QuarantineDir;
  /// reported for forensics, never counted as damage (it is already
  /// out of the resume path).
  kQuarantined = 3,
};
const char* FsckArtifactKindName(FsckArtifactKind kind);

enum class FsckVerdict : std::uint8_t {
  kOk = 0,
  kTornTail = 1,
  kTorn = 2,
  kCorrupt = 3,
  kMissing = 4,
};
const char* FsckVerdictName(FsckVerdict verdict);

/// One audited file (or one configured-but-absent artifact).
struct FsckArtifact {
  FsckArtifactKind kind = FsckArtifactKind::kJournal;
  std::string path;
  FsckVerdict verdict = FsckVerdict::kOk;
  /// Meaningful only when verdict != kOk/kMissing: whether the damage
  /// is survivable without data loss beyond what replay already skips.
  bool repairable = false;
  /// Human-readable classification ("checksum mismatch (corrupt file)",
  /// "2 interior records corrupt", ...).
  std::string detail;
};

struct FsckReport {
  std::vector<FsckArtifact> artifacts;
  std::size_t intact = 0;
  std::size_t damaged_repairable = 0;
  std::size_t damaged_unrepairable = 0;
  /// 0 clean, 2 only repairable damage, 1 unrepairable damage.
  int ExitCode() const;
};

/// Audits the state directory offline. Only orchestrator-level failures
/// (e.g. an unreadable directory) are non-OK; damaged artifacts are
/// verdicts in the report, not errors.
StatusOr<FsckReport> RunFsck(const FsckOptions& options);

/// Renders the per-artifact verdict table plus a one-line summary, the
/// way `poisonrec fsck` prints it.
std::string FormatFsckReport(const FsckReport& report);

}  // namespace poisonrec::orch

#endif  // POISONREC_ORCH_FSCK_H_
