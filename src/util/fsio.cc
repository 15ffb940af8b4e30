#include "util/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/crc32c.h"
#include "obs/event_log.h"
#include "util/bytes.h"
#include "util/random.h"

namespace poisonrec {

namespace {

bool IsWriteKind(FsFaultKind kind) {
  return kind == FsFaultKind::kEnospc || kind == FsFaultKind::kEio ||
         kind == FsFaultKind::kShortWrite || kind == FsFaultKind::kBitFlip;
}

}  // namespace

const char* FsFaultKindName(FsFaultKind kind) {
  switch (kind) {
    case FsFaultKind::kEnospc: return "enospc";
    case FsFaultKind::kEio: return "eio";
    case FsFaultKind::kShortWrite: return "short_write";
    case FsFaultKind::kFsyncFail: return "fsync_fail";
    case FsFaultKind::kTornRename: return "torn_rename";
    case FsFaultKind::kBitFlip: return "bit_flip";
  }
  return "unknown";
}

struct FaultyFs::Impl {
  struct ArmedRule {
    FsFaultRule rule;
    std::uint64_t seen = 0;
    bool fired = false;
  };

  mutable std::mutex mu;
  bool armed = false;
  std::uint64_t seed = 0;
  std::vector<ArmedRule> rules;
  FsFaultStats stats;

  /// First not-yet-fired rule of a matching kind whose match counter
  /// reaches nth for this operation. Returns nullptr when nothing
  /// fires. Caller holds mu.
  ArmedRule* Consult(const std::string& path,
                     bool (*kind_matches)(FsFaultKind)) {
    ArmedRule* firing = nullptr;
    for (ArmedRule& armed_rule : rules) {
      if (!kind_matches(armed_rule.rule.kind)) continue;
      if (!armed_rule.rule.path_substring.empty() &&
          path.find(armed_rule.rule.path_substring) == std::string::npos) {
        continue;
      }
      ++armed_rule.seen;
      if (firing == nullptr && !armed_rule.fired &&
          armed_rule.seen == armed_rule.rule.nth) {
        armed_rule.fired = true;
        ++stats.faults_injected;
        firing = &armed_rule;
      }
    }
    return firing;
  }

  /// Derives deterministic bit positions / tear lengths from (seed, rule
  /// index) so a replayed schedule flips the same bit.
  std::uint64_t RuleNonce(const ArmedRule* rule) const {
    return SplitMix64(seed ^ SplitMix64(static_cast<std::uint64_t>(
                          rule - rules.data() + 1)));
  }
};

FaultyFs::Impl* FaultyFs::impl() {
  static Impl* impl = new Impl();  // leaked: process-lifetime singleton
  return impl;
}

FaultyFs& FaultyFs::Instance() {
  static FaultyFs instance;
  return instance;
}

void FaultyFs::Arm(std::uint64_t seed, std::vector<FsFaultRule> rules) {
  Impl* state = impl();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->armed = true;
    state->seed = seed;
    state->rules.clear();
    state->rules.reserve(rules.size());
    for (FsFaultRule& rule : rules) {
      state->rules.push_back({std::move(rule), 0, false});
    }
    state->stats = FsFaultStats{};
  }
  obs::EventLog::SetAppendFaultHook(&FaultyFs::EventAppendHook);
}

void FaultyFs::Disarm() {
  obs::EventLog::SetAppendFaultHook(nullptr);
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  state->armed = false;
  state->rules.clear();
}

bool FaultyFs::armed() const {
  Impl* state = Instance().impl();
  std::lock_guard<std::mutex> lock(state->mu);
  return state->armed;
}

FsFaultStats FaultyFs::stats() const {
  Impl* state = Instance().impl();
  std::lock_guard<std::mutex> lock(state->mu);
  return state->stats;
}

FaultyFs::WriteFault FaultyFs::OnWrite(const std::string& path,
                                       std::size_t size) {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  WriteFault fault;
  if (!state->armed) return fault;
  ++state->stats.writes_seen;
  Impl::ArmedRule* rule = state->Consult(path, &IsWriteKind);
  if (rule == nullptr) return fault;
  fault.fire = true;
  fault.kind = rule->rule.kind;
  const std::uint64_t nonce = state->RuleNonce(rule);
  if (size > 0) {
    fault.short_bytes = std::max<std::size_t>(1, size / 2);
    fault.flip_bit = static_cast<std::size_t>(nonce % (size * 8));
  }
  return fault;
}

bool FaultyFs::OnFsync(const std::string& path) {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  if (!state->armed) return false;
  ++state->stats.fsyncs_seen;
  return state->Consult(path, [](FsFaultKind kind) {
           return kind == FsFaultKind::kFsyncFail;
         }) != nullptr;
}

std::int64_t FaultyFs::OnRename(const std::string& to, std::size_t size) {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  if (!state->armed) return -1;
  ++state->stats.renames_seen;
  Impl::ArmedRule* rule = state->Consult(to, [](FsFaultKind kind) {
    return kind == FsFaultKind::kTornRename;
  });
  if (rule == nullptr) return -1;
  if (size < 2) return 0;
  // Publish somewhere around [25%, 75%) of the source — always a
  // strict, non-empty prefix, so loaders face a plausible torn file.
  const std::uint64_t nonce = state->RuleNonce(rule);
  const std::size_t tear =
      size / 4 + nonce % std::max<std::size_t>(1, size / 2);
  return static_cast<std::int64_t>(
      std::clamp<std::size_t>(tear, 1, size - 1));
}

bool FaultyFs::EventAppendHook(const std::string& path, std::string* record) {
  Impl* state = Instance().impl();
  std::lock_guard<std::mutex> lock(state->mu);
  if (!state->armed) return true;
  ++state->stats.appends_seen;
  Impl::ArmedRule* rule = state->Consult(path, &IsWriteKind);
  if (rule == nullptr) return true;
  switch (rule->rule.kind) {
    case FsFaultKind::kEnospc:
    case FsFaultKind::kEio:
      // Append fails outright; the record is dropped.
      return false;
    case FsFaultKind::kShortWrite:
      // A torn append: the record's prefix lands without its newline,
      // so the NEXT append glues onto it — exactly the interior
      // corruption journal replay must skip and count.
      if (record->size() > 1) record->resize(record->size() / 2);
      return true;
    case FsFaultKind::kBitFlip: {
      if (record->size() > 1) {
        // Flip within the line body, sparing the trailing '\n' so the
        // damage stays inside one record.
        const std::size_t bits = (record->size() - 1) * 8;
        const std::size_t bit = state->RuleNonce(rule) % bits;
        (*record)[bit / 8] = static_cast<char>(
            static_cast<unsigned char>((*record)[bit / 8]) ^
            (1u << (bit % 8)));
      }
      return true;
    }
    default:
      return true;
  }
}

// ---------------------------------------------------------------------------
// Fault-aware primitives
// ---------------------------------------------------------------------------

namespace {

/// The raw EINTR/partial-write loop shared by the faulty and clean
/// paths (satellite of the integrity layer: a short write(2) is legal
/// on regular files under ENOSPC/RLIMIT_FSIZE and must be resumed, not
/// treated as success).
Status WriteLoop(int fd, const char* data, std::size_t size,
                 const std::string& path, std::size_t first_cap) {
  std::size_t written = 0;
  bool first = true;
  while (written < size) {
    std::size_t chunk = size - written;
    if (first && first_cap > 0) chunk = std::min(chunk, first_cap);
    first = false;
    const ::ssize_t n = ::write(fd, data + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int write_errno = errno;
      return Status::IoError("failed writing " + path + ": " +
                             std::strerror(write_errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteAllFd(int fd, const char* data, std::size_t size,
                  const std::string& path) {
  const FaultyFs::WriteFault fault =
      FaultyFs::Instance().OnWrite(path, size);
  if (!fault.fire) return WriteLoop(fd, data, size, path, 0);
  switch (fault.kind) {
    case FsFaultKind::kEnospc:
    case FsFaultKind::kEio: {
      // A realistic mid-stream failure: a prefix lands, then the error.
      if (size > 1) (void)WriteLoop(fd, data, size / 2, path, 0);
      const int fault_errno =
          fault.kind == FsFaultKind::kEnospc ? ENOSPC : EIO;
      return Status::IoError("failed writing " + path + ": " +
                             std::strerror(fault_errno) + " (injected)");
    }
    case FsFaultKind::kShortWrite:
      // Cap the first write() so the retry loop has to finish the job.
      return WriteLoop(fd, data, size, path, fault.short_bytes);
    case FsFaultKind::kBitFlip: {
      std::string copy(data, size);
      if (size > 0) {
        copy[fault.flip_bit / 8] = static_cast<char>(
            static_cast<unsigned char>(copy[fault.flip_bit / 8]) ^
            (1u << (fault.flip_bit % 8)));
      }
      return WriteLoop(fd, copy.data(), copy.size(), path, 0);
    }
    default:
      return WriteLoop(fd, data, size, path, 0);
  }
}

Status FsyncFd(int fd, const std::string& path) {
  if (FaultyFs::Instance().OnFsync(path)) {
    return Status::IoError("fsync failed for " + path + ": " +
                           std::strerror(EIO) + " (injected)");
  }
  if (::fsync(fd) != 0) {
    const int sync_errno = errno;
    return Status::IoError("fsync failed for " + path + ": " +
                           std::strerror(sync_errno));
  }
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  std::error_code size_ec;
  const std::uintmax_t from_size =
      std::filesystem::file_size(from, size_ec);
  const std::int64_t tear = FaultyFs::Instance().OnRename(
      to, size_ec ? 0 : static_cast<std::size_t>(from_size));
  if (tear >= 0) {
    // Simulate the crashed non-atomic rename: a prefix of the source
    // materialises at the destination, the source is gone, and the
    // caller is told everything went fine. Only verify-on-load can
    // catch this.
    std::ifstream in(from, std::ios::binary);
    std::string prefix(static_cast<std::size_t>(tear), '\0');
    in.read(prefix.data(), tear);
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    out.write(prefix.data(),
              static_cast<std::streamsize>(in.gcount()));
    out.close();
    std::error_code ec;
    std::filesystem::remove(from, ec);
    return Status::OK();
  }
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (ec) {
    return Status::IoError("cannot rename " + from + " -> " + to + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status FsyncParentDirectory(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir.string() +
                           " for fsync: " + std::strerror(errno));
  }
  const Status status = FsyncFd(fd, dir.string());
  ::close(fd);
  return status;
}

Status WriteFileDurable(const std::string& path, std::string_view contents,
                        const std::string& tmp_suffix) {
  const std::string tmp = path + tmp_suffix;
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + " for durable write: " +
                           std::strerror(errno));
  }
  Status status = WriteAllFd(fd, contents.data(), contents.size(), tmp);
  if (status.ok()) status = FsyncFd(fd, tmp);
  ::close(fd);
  if (!status.ok()) {
    // Never leave a torn tmp behind a failed publish.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return status;
  }
  POISONREC_RETURN_NOT_OK(RenameFile(tmp, path));
  return FsyncParentDirectory(path);
}

// ---------------------------------------------------------------------------
// Whole-file integrity framing
// ---------------------------------------------------------------------------

std::string WithIntegrityFooter(std::string payload) {
  const std::uint32_t crc = obs::Crc32c(payload);
  const std::uint64_t payload_len = payload.size();
  payload.reserve(payload.size() + kIntegrityFooterBytes);
  ByteWriter footer(&payload);
  footer.U32(kIntegrityMagic);
  footer.U32(kIntegrityVersion);
  footer.U64(payload_len);
  footer.U32(crc);
  return payload;
}

Status VerifyIntegrityFooter(std::string_view bytes, const std::string& path,
                             std::size_t* payload_size,
                             FileIntegrity* integrity) {
  const auto classify = [&](FileIntegrity result, std::string message) {
    if (integrity != nullptr) *integrity = result;
    if (result == FileIntegrity::kOk) return Status::OK();
    return Status::DataLoss(path + ": " + std::move(message));
  };
  if (bytes.size() < kIntegrityFooterBytes) {
    return classify(FileIntegrity::kTorn,
                    "shorter than the integrity footer (torn or unframed)");
  }
  ByteReader footer(bytes.substr(bytes.size() - kIntegrityFooterBytes));
  const std::uint32_t magic = footer.U32();
  const std::uint32_t version = footer.U32();
  const std::uint64_t payload_len = footer.U64();
  const std::uint32_t want = footer.U32();
  if (magic != kIntegrityMagic) {
    return classify(FileIntegrity::kTorn,
                    "missing integrity footer (torn or unframed)");
  }
  if (version != kIntegrityVersion) {
    return classify(FileIntegrity::kCorrupt,
                    "unsupported integrity footer version " +
                        std::to_string(version));
  }
  if (payload_len != bytes.size() - kIntegrityFooterBytes) {
    return classify(FileIntegrity::kTorn,
                    "integrity footer length mismatch (torn publish)");
  }
  const std::uint32_t got =
      obs::Crc32c(bytes.data(), static_cast<std::size_t>(payload_len));
  if (want != got) {
    return classify(FileIntegrity::kCorrupt,
                    "checksum mismatch (corrupt file)");
  }
  if (payload_size != nullptr) {
    *payload_size = static_cast<std::size_t>(payload_len);
  }
  return classify(FileIntegrity::kOk, "");
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("failed reading " + path);
  return std::move(buffer).str();
}

Status WriteFileDurableChecksummed(const std::string& path,
                                   std::string_view payload,
                                   const std::string& tmp_suffix) {
  return WriteFileDurable(path, WithIntegrityFooter(std::string(payload)),
                          tmp_suffix);
}

StatusOr<std::string> ReadFileVerified(const std::string& path,
                                       FileIntegrity* integrity) {
  StatusOr<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    if (integrity != nullptr) *integrity = FileIntegrity::kMissing;
    return bytes.status();
  }
  std::size_t payload_size = 0;
  POISONREC_RETURN_NOT_OK(
      VerifyIntegrityFooter(*bytes, path, &payload_size, integrity));
  bytes->resize(payload_size);
  return std::move(*bytes);
}

}  // namespace poisonrec
