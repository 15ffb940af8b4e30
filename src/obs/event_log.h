// Append-only structured event stream: one JSONL file unifying what the
// campaign previously scattered across stdout and ad-hoc sinks — guard
// incidents, defender BanEvents, checkpoint save/load, rollbacks, and
// per-step TrainStepStats records. The fleet journal (orch/journal.h)
// is an EventLog too.
//
// Contract:
//   * One event per line; every line is a complete JSON object with at
//     least a "type" key (docs/observability.md lists the schemas).
//   * Append(line) is atomic with respect to concurrent Append calls
//     from ANY process: the file is opened with O_APPEND and the full
//     line plus '\n' goes out in a single ::write(). POSIX guarantees
//     the kernel performs the seek-to-end and the write as one atomic
//     step for O_APPEND regular files, so two `poisonrec fleet`
//     workers appending to the same journal can never interleave
//     mid-line — a guarantee buffered stdio append ("ab" + fwrite)
//     cannot make once a line crosses the FILE* buffer boundary.
//   * Crash-durable: each line is a direct write(2), so everything up
//     to the last completed Append survives kill -9 (page cache;
//     machine-crash durability is the checkpoint layer's job,
//     util/fsio).
//
// The producer side builds lines with obs::JsonObjectBuilder; EventLog
// itself does not validate JSON.
#ifndef POISONREC_OBS_EVENT_LOG_H_
#define POISONREC_OBS_EVENT_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace poisonrec::obs {

class EventLog {
 public:
  EventLog() = default;
  ~EventLog() { Close(); }
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Opens `path` for writing (truncating by default; pass
  /// truncate=false to append, as the shared fleet journals do). False
  /// if the file cannot be opened; the log stays closed. checksum=true
  /// splices a trailing CRC32C member into every JSON-object line
  /// (obs/crc32c.h framing) so readers can tell rotted records from torn
  /// ones — the fleet journal turns this on; the campaign event stream
  /// (`--events-out`) keeps the byte-transparent default.
  bool Open(const std::string& path, bool truncate = true,
            bool checksum = false);

  /// Writes `line` plus a trailing '\n' as one atomic append. `line`
  /// must be a complete JSON object without the newline. Returns false
  /// (and drops the event) if the log is closed or the write fails.
  bool Append(std::string_view line);

  /// Fault-injection seam for the O_APPEND write path, consulted once
  /// per Append with the log's path and the mutable record (checksummed
  /// line plus '\n'). The hook may mutate the record (bit flips,
  /// truncation — a torn append) or return false to fail the append
  /// outright (ENOSPC/EIO). Process-wide; installed by util/fsio's
  /// FaultyFs when a chaos schedule is armed, nullptr otherwise. A
  /// plain function pointer so obs/ keeps its no-dependency contract.
  using AppendFaultHook = bool (*)(const std::string& path,
                                   std::string* record);
  static void SetAppendFaultHook(AppendFaultHook hook);

  /// Closes the file. Safe to call repeatedly.
  void Close();

  bool is_open() const;
  std::uint64_t lines_written() const;
  const std::string& path() const { return path_; }

 private:
  mutable std::mutex mu_;
  int fd_ = -1;
  bool checksum_ = false;
  std::string path_;
  std::uint64_t lines_written_ = 0;
};

}  // namespace poisonrec::obs

#endif  // POISONREC_OBS_EVENT_LOG_H_
