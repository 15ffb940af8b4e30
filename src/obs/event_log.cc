#include "obs/event_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

#include "obs/crc32c.h"

namespace poisonrec::obs {

namespace {

/// Process-wide append fault hook (nullptr = no faults armed).
std::atomic<EventLog::AppendFaultHook> g_append_fault_hook{nullptr};

/// write(2) the whole buffer, retrying EINTR and partial writes (which
/// only occur on regular files under ENOSPC/RLIMIT_FSIZE — by then the
/// single-write atomicity guarantee is moot and completing the record
/// beats leaving a torn prefix mid-file).
bool WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void EventLog::SetAppendFaultHook(AppendFaultHook hook) {
  g_append_fault_hook.store(hook, std::memory_order_release);
}

bool EventLog::Open(const std::string& path, bool truncate, bool checksum) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // O_APPEND makes every write() an atomic seek-to-end+write in the
  // kernel, which is what lets multiple processes share one journal
  // file without interleaving lines (see the header contract).
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return false;
  path_ = path;
  checksum_ = checksum;
  lines_written_ = 0;
  return true;
}

bool EventLog::Append(std::string_view line) {
  // Copy the line outside the lock so the critical section is the
  // checksum splice (cheap: one CRC pass over a short line) plus one
  // write(2). checksum_ and path_ are guarded by mu_, so the splice and
  // fault-hook consult stay inside it.
  std::string record;
  record.reserve(line.size() + 1);
  record.append(line);

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return false;
  if (checksum_) record = WithLineChecksum(std::move(record));
  record.push_back('\n');
  if (AppendFaultHook hook =
          g_append_fault_hook.load(std::memory_order_acquire);
      hook != nullptr && !hook(path_, &record)) {
    return false;
  }
  if (!WriteAll(fd_, record.data(), record.size())) return false;
  ++lines_written_;
  return true;
}

void EventLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool EventLog::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

std::uint64_t EventLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

}  // namespace poisonrec::obs
