#include "orch/fsck.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ppo.h"
#include "orch/journal.h"
#include "orch/lease.h"
#include "orch/supervisor.h"
#include "util/fsio.h"

namespace poisonrec::orch {
namespace {

namespace fs = std::filesystem;

/// `message` without the "<path>: " prefix the storage layer bakes into
/// its errors — the table already has a path column.
std::string WithoutPathPrefix(std::string message, const std::string& path) {
  const std::string prefix = path + ": ";
  if (message.compare(0, prefix.size(), prefix) == 0) {
    message.erase(0, prefix.size());
  }
  return message;
}

/// Classifies one checkpoint file through the frame check LoadCheckpoint
/// runs first (core::CheckpointPayload), without parsing the payload.
FsckArtifact AuditCheckpoint(const std::string& path) {
  FsckArtifact artifact;
  artifact.kind = FsckArtifactKind::kCheckpoint;
  artifact.path = path;
  StatusOr<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    artifact.verdict = bytes.status().code() == StatusCode::kNotFound
                           ? FsckVerdict::kMissing
                           : FsckVerdict::kCorrupt;
    artifact.detail = "unreadable";
    return artifact;
  }
  FileIntegrity integrity = FileIntegrity::kOk;
  const StatusOr<std::string_view> payload =
      core::CheckpointPayload(*bytes, path, &integrity);
  if (!payload.ok()) {
    artifact.verdict = integrity == FileIntegrity::kTorn ? FsckVerdict::kTorn
                                                         : FsckVerdict::kCorrupt;
    artifact.detail = WithoutPathPrefix(payload.status().message(), path);
    return artifact;
  }
  artifact.verdict = FsckVerdict::kOk;
  artifact.detail = std::to_string(payload->size()) + " payload bytes";
  return artifact;
}

FsckArtifact AuditJournalFile(const std::string& path) {
  FsckArtifact artifact;
  artifact.kind = FsckArtifactKind::kJournal;
  artifact.path = path;
  StatusOr<JournalReplayResult> replay = FleetJournal::Replay({path});
  if (!replay.ok()) {
    artifact.verdict = FsckVerdict::kCorrupt;
    artifact.detail = replay.status().message();
    return artifact;
  }
  const std::uint64_t interior =
      replay->malformed_lines + replay->corrupt_lines;
  if (interior > 0) {
    // Interior records are unrecoverable: replay skips them, but the
    // transitions they carried are lost for good.
    artifact.verdict = FsckVerdict::kCorrupt;
    std::ostringstream detail;
    detail << interior << " interior record" << (interior == 1 ? "" : "s")
           << " lost (" << replay->malformed_lines << " malformed, "
           << replay->corrupt_lines << " checksum-corrupt)";
    if (replay->torn_tail_lines > 0) detail << ", torn tail";
    artifact.detail = detail.str();
    return artifact;
  }
  if (replay->torn_tail_lines > 0) {
    artifact.verdict = FsckVerdict::kTornTail;
    artifact.repairable = true;  // replay tolerates the crash frontier
    artifact.detail = "torn final line (crash frontier); replay skips it";
    return artifact;
  }
  artifact.verdict = FsckVerdict::kOk;
  artifact.detail =
      std::to_string(replay->campaigns.size()) + " campaign(s) replayed";
  return artifact;
}

FsckArtifact AuditLease(const LeaseManager& manager,
                        const std::string& campaign_id) {
  FsckArtifact artifact;
  artifact.kind = FsckArtifactKind::kLease;
  artifact.path = manager.LeasePath(campaign_id);
  const std::string& path = artifact.path;
  StatusOr<LeaseInfo> info = manager.Read(campaign_id);
  if (info.ok()) {
    artifact.verdict = FsckVerdict::kOk;
    artifact.detail = info->owner.empty()
                          ? "released, token " + std::to_string(info->token)
                          : "held by " + info->owner + ", token " +
                                std::to_string(info->token);
    return artifact;
  }
  if (info.status().code() == StatusCode::kNotFound) {
    artifact.verdict = FsckVerdict::kMissing;
    artifact.detail = "lease file vanished mid-audit";
    return artifact;
  }
  // Damaged lease files are always repairable: once one has gone a TTL
  // without a rewrite, the next Acquire holds the flock sidecar and
  // rewrites it from scratch, above the journal's and checkpoints'
  // highest token.
  artifact.verdict = FsckVerdict::kCorrupt;
  artifact.repairable = true;
  artifact.detail = WithoutPathPrefix(info.status().message(), path);
  return artifact;
}

bool IsDamage(const FsckArtifact& artifact) {
  return artifact.kind != FsckArtifactKind::kQuarantined &&
         artifact.verdict != FsckVerdict::kOk &&
         artifact.verdict != FsckVerdict::kMissing;
}

}  // namespace

const char* FsckArtifactKindName(FsckArtifactKind kind) {
  switch (kind) {
    case FsckArtifactKind::kJournal:
      return "journal";
    case FsckArtifactKind::kCheckpoint:
      return "checkpoint";
    case FsckArtifactKind::kLease:
      return "lease";
    case FsckArtifactKind::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

const char* FsckVerdictName(FsckVerdict verdict) {
  switch (verdict) {
    case FsckVerdict::kOk:
      return "ok";
    case FsckVerdict::kTornTail:
      return "torn_tail";
    case FsckVerdict::kTorn:
      return "torn";
    case FsckVerdict::kCorrupt:
      return "corrupt";
    case FsckVerdict::kMissing:
      return "missing";
  }
  return "unknown";
}

int FsckReport::ExitCode() const {
  if (damaged_unrepairable > 0) return 1;
  if (damaged_repairable > 0) return 2;
  return 0;
}

StatusOr<FsckReport> RunFsck(const FsckOptions& options) {
  if (options.journal_path.empty() && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "fsck needs at least one of journal_path / checkpoint_dir");
  }
  FsckReport report;

  // -- Journal family ---------------------------------------------------
  if (!options.journal_path.empty()) {
    const std::vector<std::string> files =
        FleetJournal::ListJournalFiles(options.journal_path);
    if (files.empty()) {
      FsckArtifact artifact;
      artifact.kind = FsckArtifactKind::kJournal;
      artifact.path = options.journal_path;
      artifact.verdict = FsckVerdict::kMissing;
      artifact.detail = "no journal files (fleet never ran, or wrong path)";
      report.artifacts.push_back(std::move(artifact));
    }
    for (const std::string& file : files) {
      report.artifacts.push_back(AuditJournalFile(file));
    }
  }

  // -- Checkpoints (and prior quarantines), then leases -----------------
  const std::string& checkpoint_dir = options.checkpoint_dir;
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    if (!fs::is_directory(checkpoint_dir, ec)) {
      FsckArtifact artifact;
      artifact.kind = FsckArtifactKind::kCheckpoint;
      artifact.path = checkpoint_dir;
      artifact.verdict = FsckVerdict::kMissing;
      artifact.detail = "checkpoint directory does not exist";
      report.artifacts.push_back(std::move(artifact));
    } else {
      // (path, campaign id), sorted by path.
      std::vector<std::pair<std::string, std::string>> paths;
      for (const fs::directory_entry& entry :
           fs::directory_iterator(checkpoint_dir, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        const std::optional<CheckpointName> name =
            ParseCheckpointName(entry.path().filename().string());
        if (name.has_value()) {
          paths.emplace_back(entry.path().string(), name->campaign_id);
        }
      }
      std::sort(paths.begin(), paths.end());
      // First pass: verdicts. Second pass: a damaged checkpoint is
      // repairable iff an intact sibling for the same campaign exists
      // (the supervisor's quarantine-and-fall-back path).
      std::set<std::string> campaigns_with_intact;
      std::vector<FsckArtifact> checkpoints;
      checkpoints.reserve(paths.size());
      for (const auto& [path, id] : paths) {
        checkpoints.push_back(AuditCheckpoint(path));
        if (checkpoints.back().verdict == FsckVerdict::kOk) {
          campaigns_with_intact.insert(id);
        }
      }
      for (std::size_t i = 0; i < checkpoints.size(); ++i) {
        FsckArtifact& artifact = checkpoints[i];
        if (IsDamage(artifact)) {
          artifact.repairable =
              campaigns_with_intact.count(paths[i].second) > 0;
          if (artifact.repairable) {
            artifact.detail += "; intact sibling checkpoint exists";
          }
        }
        report.artifacts.push_back(std::move(artifact));
      }
      // Prior quarantines: informational only.
      const fs::path quarantine_dir = QuarantineDir(checkpoint_dir);
      if (fs::is_directory(quarantine_dir, ec)) {
        std::vector<std::string> quarantined;
        for (const fs::directory_entry& entry :
             fs::directory_iterator(quarantine_dir, ec)) {
          if (entry.is_regular_file(ec)) {
            quarantined.push_back(entry.path().string());
          }
        }
        std::sort(quarantined.begin(), quarantined.end());
        for (const std::string& path : quarantined) {
          FsckArtifact artifact = AuditCheckpoint(path);
          artifact.kind = FsckArtifactKind::kQuarantined;
          artifact.repairable = false;
          report.artifacts.push_back(std::move(artifact));
        }
      }
    }
    // A missing lease dir is normal for a state dir written before
    // every fleet held leases: it lists nothing.
    const LeaseManager manager(LeaseDir(checkpoint_dir), "fsck", 1.0);
    for (const std::string& id : manager.List()) {
      report.artifacts.push_back(AuditLease(manager, id));
    }
  }

  for (const FsckArtifact& artifact : report.artifacts) {
    if (IsDamage(artifact)) {
      if (artifact.repairable) {
        ++report.damaged_repairable;
      } else {
        ++report.damaged_unrepairable;
      }
    } else if (artifact.verdict == FsckVerdict::kOk) {
      ++report.intact;
    }
  }
  return report;
}

std::string FormatFsckReport(const FsckReport& report) {
  std::size_t path_width = 4;
  for (const FsckArtifact& artifact : report.artifacts) {
    path_width = std::max(path_width, artifact.path.size());
  }
  path_width = std::min<std::size_t>(path_width, 60);
  std::ostringstream out;
  out << "KIND         VERDICT    REPAIR  ";
  out << "PATH";
  for (std::size_t i = 4; i < path_width; ++i) out << ' ';
  out << "  DETAIL\n";
  for (const FsckArtifact& artifact : report.artifacts) {
    std::string kind = FsckArtifactKindName(artifact.kind);
    kind.resize(13, ' ');
    std::string verdict = FsckVerdictName(artifact.verdict);
    verdict.resize(11, ' ');
    std::string repair = IsDamage(artifact)
                             ? (artifact.repairable ? "yes" : "NO")
                             : "-";
    repair.resize(8, ' ');
    std::string path = artifact.path;
    if (path.size() < path_width) path.resize(path_width, ' ');
    out << kind << verdict << repair << path << "  " << artifact.detail
        << "\n";
  }
  out << "fsck: " << report.intact << " intact, " << report.damaged_repairable
      << " repairable, " << report.damaged_unrepairable
      << " unrepairable (exit " << report.ExitCode() << ")\n";
  return out.str();
}

}  // namespace poisonrec::orch
