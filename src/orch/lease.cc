#include "orch/lease.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>

#include "obs/crc32c.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "orch/json_reader.h"
#include "util/fsio.h"
#include "util/logging.h"

namespace poisonrec::orch {

namespace {

obs::Counter* LeaseCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

/// RAII exclusive flock on the sidecar lock file. Blocks until granted;
/// transitions are a read + a small durable write, so contention is
/// bounded by lease churn, not campaign runtime.
class FileLock {
 public:
  explicit FileLock(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~FileLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

double WallClockSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Last-modification time of `path` in unix seconds.
StatusOr<double> MtimeUnixSeconds(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    const int stat_errno = errno;
    if (stat_errno == ENOENT) return Status::NotFound("no file at " + path);
    return Status::IoError("cannot stat " + path + ": " +
                           std::strerror(stat_errno));
  }
  return static_cast<double>(st.st_mtim.tv_sec) +
         static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
}

}  // namespace

std::string DefaultWorkerId() {
  // The nonce is drawn once per process: pid alone is ambiguous across
  // reboots and pid wraparound, pid+nonce is not.
  static const std::string id = [] {
    std::random_device rd;
    const std::uint64_t nonce =
        (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
    std::ostringstream out;
    out << "w" << static_cast<std::uint64_t>(::getpid()) << "-" << std::hex
        << (nonce & 0xffffffffull);
    return out.str();
  }();
  return id;
}

std::string LeaseDir(const std::string& checkpoint_dir) {
  return (std::filesystem::path(checkpoint_dir) / "leases").string();
}

LeaseManager::LeaseManager(std::string dir, std::string owner_id,
                           double ttl_seconds)
    : dir_(std::move(dir)),
      owner_id_(std::move(owner_id)),
      ttl_seconds_(ttl_seconds) {}

double LeaseManager::Now() const {
  return now_ ? now_() : WallClockSeconds();
}

Status LeaseManager::Init() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create lease directory " + dir_ + ": " +
                           ec.message());
  }
  return Status::OK();
}

std::vector<std::string> LeaseManager::List() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".lease") continue;
    ids.push_back(it->path().stem().string());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string LeaseManager::LeasePath(const std::string& campaign_id) const {
  return (std::filesystem::path(dir_) / (campaign_id + ".lease")).string();
}

std::string LeaseManager::LockPath(const std::string& campaign_id) const {
  return (std::filesystem::path(dir_) / (campaign_id + ".lock")).string();
}

Status LeaseManager::WriteLease(const LeaseInfo& info) const {
  obs::JsonObjectBuilder b;
  b.Str("type", "lease")
      .Str("campaign_id", info.campaign_id)
      .Str("owner", info.owner)
      .Int("pid", info.pid)
      .Int("token", info.token)
      .Num("renewed_unix", info.renewed_unix)
      .Num("ttl_seconds", info.ttl_seconds);
  // tmp suffix embeds the owner id so two workers inside the same
  // transition window (impossible under the flock, but cheap insurance)
  // never share a tmp file. The CRC32C line checksum lets Read reject
  // a rotted lease even when it still parses as JSON.
  return WriteFileDurable(
      LeasePath(info.campaign_id),
      obs::WithLineChecksum(std::move(b).Finish()) + "\n",
      ".tmp-" + owner_id_);
}

StatusOr<LeaseInfo> LeaseManager::Read(const std::string& campaign_id) const {
  const std::string path = LeasePath(campaign_id);
  std::ifstream in(path);
  if (!in) return Status::NotFound("no lease file at " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string line = std::move(buffer).str();
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  // Checksum before structure: a flipped bit inside a token digit or
  // the owner string still parses as valid JSON, and trusting it would
  // break the fencing contract. Legacy files without the crc member
  // pass through.
  if (obs::VerifyLineChecksum(line) == obs::LineChecksum::kMismatch) {
    return Status::DataLoss("lease checksum mismatch for " + path);
  }
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed->is_object()) {
    return Status::DataLoss("unparseable lease file " + path);
  }
  LeaseInfo info;
  info.campaign_id = campaign_id;
  if (const JsonValue* v = parsed->Find("owner");
      v != nullptr && v->is_string()) {
    info.owner = v->string_value;
  }
  if (const JsonValue* v = parsed->Find("pid");
      v != nullptr && v->is_number()) {
    info.pid = static_cast<std::uint64_t>(v->number_value);
  }
  if (const JsonValue* v = parsed->Find("token");
      v != nullptr && v->is_number()) {
    info.token = static_cast<std::uint64_t>(v->number_value);
  }
  if (const JsonValue* v = parsed->Find("renewed_unix");
      v != nullptr && v->is_number()) {
    info.renewed_unix = v->number_value;
  }
  if (const JsonValue* v = parsed->Find("ttl_seconds");
      v != nullptr && v->is_number()) {
    info.ttl_seconds = v->number_value;
  }
  return info;
}

Status LeaseManager::ClaimVerdict(const std::string& campaign_id,
                                  const StatusOr<LeaseInfo>& current) const {
  if (current.ok()) {
    if (current->owner.empty() || current->owner == owner_id_) {
      return Status::OK();
    }
    const double age = Now() - current->renewed_unix;
    const double ttl =
        current->ttl_seconds > 0.0 ? current->ttl_seconds : ttl_seconds_;
    if (age > ttl) return Status::OK();
    return Status::Unavailable("campaign " + campaign_id + " leased by " +
                               current->owner + " (age " +
                               std::to_string(age) + "s <= ttl " +
                               std::to_string(ttl) + "s)");
  }
  if (current.status().code() == StatusCode::kNotFound) return Status::OK();
  if (current.status().code() != StatusCode::kDataLoss) {
    return current.status();
  }
  // A damaged lease names no owner we can trust. A live owner rewrites
  // its lease every ttl/3, so one untouched for a whole TTL has nobody
  // behind it; until then, assume someone is.
  StatusOr<double> mtime = MtimeUnixSeconds(LeasePath(campaign_id));
  if (!mtime.ok()) {
    return mtime.status().code() == StatusCode::kNotFound ? Status::OK()
                                                          : mtime.status();
  }
  const double age = Now() - *mtime;
  if (age > ttl_seconds_) return Status::OK();
  return Status::Unavailable("campaign " + campaign_id +
                             " has a damaged lease rewritten " +
                             std::to_string(age) + "s ago (<= ttl " +
                             std::to_string(ttl_seconds_) + "s)");
}

bool LeaseManager::Seizable(const std::string& campaign_id) const {
  return ClaimVerdict(campaign_id, Read(campaign_id)).ok();
}

StatusOr<LeaseInfo> LeaseManager::Acquire(const std::string& campaign_id,
                                          std::uint64_t token_floor) {
  FileLock lock(LockPath(campaign_id));
  if (!lock.held()) {
    return Status::IoError("cannot lock lease transition for " + campaign_id);
  }
  const StatusOr<LeaseInfo> current = Read(campaign_id);
  POISONREC_RETURN_NOT_OK(ClaimVerdict(campaign_id, current));

  LeaseInfo next;
  next.campaign_id = campaign_id;
  next.owner = owner_id_;
  next.pid = static_cast<std::uint64_t>(::getpid());
  next.renewed_unix = Now();
  next.ttl_seconds = ttl_seconds_;
  const std::uint64_t held = current.ok() ? current->token : 0;
  if (current.ok() && current->owner == owner_id_ && held >= token_floor) {
    // Idempotent re-acquire: already ours, keep the token.
    next.token = held;
  } else {
    // A new fencing epoch. The floor covers what the lease file cannot
    // vouch for: a deleted lease dir or a damaged file.
    next.token = std::max(held, token_floor) + 1;
    const bool seized = current.ok() ? !current->owner.empty() &&
                                           current->owner != owner_id_
                                     : current.status().code() ==
                                           StatusCode::kDataLoss;
    if (seized) {
      // The previous owner's writes are fenced out by the token from
      // here on.
      LeaseCounter("poisonrec_fleet_lease_takeovers_total")->Increment();
      POISONREC_LOG(Warning)
          << "lease takeover: campaign " << campaign_id << " seized from "
          << (current.ok() ? current->owner
                           : "a damaged lease (" +
                                 current.status().message() + ")")
          << ", fencing token " << next.token;
    }
  }

  POISONREC_RETURN_NOT_OK(WriteLease(next));
  LeaseCounter("poisonrec_fleet_lease_acquired_total")->Increment();
  return next;
}

Status LeaseManager::Renew(const std::string& campaign_id,
                           std::uint64_t token) {
  FileLock lock(LockPath(campaign_id));
  if (!lock.held()) {
    return Status::IoError("cannot lock lease transition for " + campaign_id);
  }
  POISONREC_ASSIGN_OR_RETURN(LeaseInfo current, Read(campaign_id));
  if (current.owner != owner_id_ || current.token != token) {
    LeaseCounter("poisonrec_fleet_lease_fenced_total")->Increment();
    return Status::FailedPrecondition(
        "fenced out of campaign " + campaign_id + ": lease now owner=\"" +
        current.owner + "\" token=" + std::to_string(current.token) +
        ", ours was " + std::to_string(token));
  }
  current.renewed_unix = Now();
  current.ttl_seconds = ttl_seconds_;
  POISONREC_RETURN_NOT_OK(WriteLease(current));
  LeaseCounter("poisonrec_fleet_lease_renewals_total")->Increment();
  return Status::OK();
}

Status LeaseManager::Validate(const std::string& campaign_id,
                              std::uint64_t token) const {
  POISONREC_ASSIGN_OR_RETURN(LeaseInfo current, Read(campaign_id));
  if (current.owner != owner_id_ || current.token != token) {
    LeaseCounter("poisonrec_fleet_lease_fenced_total")->Increment();
    return Status::FailedPrecondition(
        "fenced out of campaign " + campaign_id + ": lease now owner=\"" +
        current.owner + "\" token=" + std::to_string(current.token) +
        ", ours was " + std::to_string(token));
  }
  return Status::OK();
}

Status LeaseManager::Release(const std::string& campaign_id,
                             std::uint64_t token) {
  FileLock lock(LockPath(campaign_id));
  if (!lock.held()) {
    return Status::IoError("cannot lock lease transition for " + campaign_id);
  }
  POISONREC_ASSIGN_OR_RETURN(LeaseInfo current, Read(campaign_id));
  if (current.owner != owner_id_ || current.token != token) {
    return Status::FailedPrecondition(
        "cannot release campaign " + campaign_id +
        ": lease is not ours (owner=\"" + current.owner +
        "\" token=" + std::to_string(current.token) + ")");
  }
  current.owner.clear();
  current.pid = 0;
  current.renewed_unix = Now();
  POISONREC_RETURN_NOT_OK(WriteLease(current));
  return Status::OK();
}

}  // namespace poisonrec::orch
