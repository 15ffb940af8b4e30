// Durable-write helpers for the crash-safety paths (checkpoints, the
// fleet journal, campaign leases) plus the storage integrity layer:
// a deterministic I/O fault-injection shim (FaultyFs) and whole-file
// checksum framing for verify-on-load.
//
// The atomic tmp+rename idiom alone only protects against *process*
// crashes: after a machine crash (power loss, kernel panic) the rename
// can be on disk while the file's data blocks are not, leaving a
// zero-length "committed" file at the destination. Full durability
// needs three steps:
//
//   1. write tmp file, fsync it          (data blocks reach the disk)
//   2. rename tmp -> final               (atomic visibility switch)
//   3. fsync the parent directory        (the rename itself is durable)
//
// Loaders must still treat a truncated file as possible (old kernels,
// non-POSIX filesystems) and reject it with StatusCode::kDataLoss
// rather than crashing. The checksummed variants below make that
// rejection exact: a footer [magic, version, length, CRC32C] is
// appended on publish and verified on load, classifying damage as
// torn (length/footer wrong — an interrupted publish) versus corrupt
// (length right, checksum wrong — bit rot) versus missing.
//
// Every primitive here consults FaultyFs, the process-wide fault shim:
// chaos tests arm a (seed, schedule) pair and the Nth matching write /
// fsync / rename fails with ENOSPC/EIO, returns short, tears, or
// flips a bit — bit-deterministically, the same trick
// env::FaultyEnvironment plays with reward queries. Disarmed (the
// default) the shim is one relaxed atomic load per operation.
#ifndef POISONREC_UTIL_FSIO_H_
#define POISONREC_UTIL_FSIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace poisonrec {

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

enum class FsFaultKind : std::uint8_t {
  /// write(2) fails with ENOSPC after a partial prefix lands (disk
  /// full mid-record — the torn-prefix case loaders must survive).
  kEnospc = 0,
  /// write(2) fails with EIO after a partial prefix lands.
  kEio = 1,
  /// The first write(2) of the operation returns short; the caller's
  /// retry loop must complete the record (benign if it does).
  kShortWrite = 2,
  /// fsync(2) fails with EIO (the dirty pages' fate is unknown).
  kFsyncFail = 3,
  /// rename(2) "succeeds" but the destination materialises as a torn
  /// prefix of the source (a crashed non-atomic filesystem).
  kTornRename = 4,
  /// The written bytes reach the file with one bit flipped (silent
  /// corruption in flight; only checksums can catch it).
  kBitFlip = 5,
};

const char* FsFaultKindName(FsFaultKind kind);

/// One scheduled fault: fires on the `nth` operation (1-based) of the
/// kind's category whose path contains `path_substring` (empty matches
/// every path), then disarms itself. Write-category kinds (kEnospc,
/// kEio, kShortWrite, kBitFlip) also match event-log appends.
struct FsFaultRule {
  FsFaultKind kind = FsFaultKind::kEio;
  std::string path_substring;
  std::uint64_t nth = 1;
};

struct FsFaultStats {
  std::uint64_t writes_seen = 0;
  std::uint64_t fsyncs_seen = 0;
  std::uint64_t renames_seen = 0;
  std::uint64_t appends_seen = 0;
  std::uint64_t faults_injected = 0;
};

/// Process-wide deterministic fault shim. Arm(seed, rules) installs a
/// schedule; every fault decision afterwards is a pure function of the
/// schedule, the per-rule match counters, and the seed (which derives
/// bit positions and tear lengths), so any single-fault run replays
/// bit-identically. Thread-safe; tests must Disarm() before asserting
/// clean behaviour.
class FaultyFs {
 public:
  static FaultyFs& Instance();

  void Arm(std::uint64_t seed, std::vector<FsFaultRule> rules);
  void Disarm();
  bool armed() const;
  FsFaultStats stats() const;

  // -- Hooks for the I/O primitives below (not for general use) -------------

  /// What a write-class consult decided.
  struct WriteFault {
    FsFaultKind kind = FsFaultKind::kShortWrite;
    bool fire = false;
    /// kShortWrite: bytes the first write() may consume.
    std::size_t short_bytes = 0;
    /// kBitFlip: bit index within the buffer to flip.
    std::size_t flip_bit = 0;
  };
  WriteFault OnWrite(const std::string& path, std::size_t size);
  /// True = inject an fsync failure.
  bool OnFsync(const std::string& path);
  /// >= 0 = tear the rename, publishing only this many source bytes.
  /// -1 = rename normally.
  std::int64_t OnRename(const std::string& to, std::size_t size);
  /// Event-log append consult (see obs::EventLog::SetAppendFaultHook).
  static bool EventAppendHook(const std::string& path, std::string* record);

 private:
  FaultyFs() = default;
  struct Impl;
  Impl* impl();
};

// ---------------------------------------------------------------------------
// Fault-aware I/O primitives
// ---------------------------------------------------------------------------

/// write(2) the whole buffer to `fd`, retrying EINTR and partial
/// writes until complete or a real error. `path` is for messages and
/// fault matching.
Status WriteAllFd(int fd, const char* data, std::size_t size,
                  const std::string& path);

/// fsync(2) with fault consult.
Status FsyncFd(int fd, const std::string& path);

/// rename(2) with fault consult (the torn-rename fault is simulated
/// here: a prefix of `from` is copied to `to` and `from` removed).
Status RenameFile(const std::string& from, const std::string& to);

/// fsyncs the directory containing `path`, making a completed rename of
/// `path` durable. A path without a directory component syncs ".".
Status FsyncParentDirectory(const std::string& path);

/// Publishes `contents` at `path` with the full three-step discipline
/// above: write to `path` + `tmp_suffix`, fsync, rename over `path`,
/// fsync the parent directory. Readers therefore see either the old
/// file or the complete new one, never a torn intermediate — the same
/// contract checkpoints rely on, reused by the campaign lease files
/// (orch/lease.h).
Status WriteFileDurable(const std::string& path, std::string_view contents,
                        const std::string& tmp_suffix = ".tmp");

// ---------------------------------------------------------------------------
// Whole-file integrity framing
// ---------------------------------------------------------------------------

/// "PRIF" — the integrity footer magic.
inline constexpr std::uint32_t kIntegrityMagic = 0x50524946u;
inline constexpr std::uint32_t kIntegrityVersion = 1;
/// [u32 magic][u32 version][u64 payload length][u32 CRC32C(payload)].
inline constexpr std::size_t kIntegrityFooterBytes = 20;

/// How a framed file read back.
enum class FileIntegrity : std::uint8_t {
  kOk = 0,
  /// No file at the path.
  kMissing = 1,
  /// Footer absent or length wrong: an interrupted (torn) publish, or
  /// a file that was never framed.
  kTorn = 2,
  /// Footer intact but the checksum disagrees: bit rot.
  kCorrupt = 3,
};

/// Appends the integrity footer to `payload`.
std::string WithIntegrityFooter(std::string payload);

/// Checks the footer of in-memory `bytes`; on OK, `*payload_size`
/// receives the framed payload's length (bytes minus footer). Errors
/// are kDataLoss with `path` in the message; `*integrity` (optional)
/// receives the classification either way.
Status VerifyIntegrityFooter(std::string_view bytes, const std::string& path,
                             std::size_t* payload_size,
                             FileIntegrity* integrity = nullptr);

/// Reads the whole file. kNotFound when missing, kIoError otherwise.
StatusOr<std::string> ReadFileBytes(const std::string& path);

/// WriteFileDurable with the integrity footer appended: the durable
/// publish discipline guards against crashes, the footer against rot.
Status WriteFileDurableChecksummed(const std::string& path,
                                   std::string_view payload,
                                   const std::string& tmp_suffix = ".tmp");

/// Reads a framed file and verifies the footer, returning the payload
/// without it. kNotFound (kMissing) when absent; kDataLoss (kTorn /
/// kCorrupt) when damaged. `*integrity` (optional) receives the
/// classification either way.
StatusOr<std::string> ReadFileVerified(const std::string& path,
                                       FileIntegrity* integrity = nullptr);

}  // namespace poisonrec

#endif  // POISONREC_UTIL_FSIO_H_
