// Storage-integrity overhead harness: measures what the PR's integrity
// framing costs on the hot write paths so the "checksums are cheap"
// claim in docs/robustness.md stays an empirical one:
//
//   1. Raw CRC32C throughput (software table implementation) over
//      checkpoint-sized buffers.
//   2. Checksummed vs plain EventLog append throughput (the journal's
//      per-line CRC32C splice).
//   3. Durable checkpoint publish: WriteFileDurable vs
//      WriteFileDurableChecksummed, plus the verify-on-load cost of
//      ReadFileVerified.
//
// Output: results/storage_integrity.{csv,json}, one row per operation.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/crc32c.h"
#include "obs/event_log.h"
#include "util/fsio.h"

namespace poisonrec::bench {
namespace {

double SecondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string Format(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return std::string(buffer);
}

int Run() {
  const BenchConfig config = LoadBenchConfig();
  const std::string work_dir =
      (std::filesystem::temp_directory_path() /
       "poisonrec_bench_storage_integrity")
          .string();
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"operation", "iterations", "wall_seconds", "mb_per_s",
                  "ops_per_s"});
  PrintTableHeader({"operation", "iters", "wall s", "MB/s", "ops/s"});

  const auto report = [&rows](const std::string& name, std::size_t iters,
                              double wall, double bytes) {
    const double mbs = wall > 0.0 ? bytes / wall / (1024.0 * 1024.0) : 0.0;
    const double ops = wall > 0.0 ? static_cast<double>(iters) / wall : 0.0;
    PrintTableRow({name, std::to_string(iters), Format(wall),
                   FormatCount(mbs), FormatCount(ops)});
    rows.push_back({name, std::to_string(iters), std::to_string(wall),
                    std::to_string(mbs), std::to_string(ops)});
  };

  // 1. Raw CRC32C over a checkpoint-sized buffer.
  {
    const std::size_t buffer_bytes = 1 << 20;
    std::string buffer(buffer_bytes, '\0');
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      buffer[i] = static_cast<char>(i * 131u + 17u);
    }
    const std::size_t iters = 64;
    volatile std::uint32_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      sink = obs::Crc32c(buffer.data(), buffer.size(), sink);
    }
    report("crc32c_1mib", iters, SecondsSince(start),
           static_cast<double>(iters * buffer_bytes));
  }

  // 2. Plain vs checksummed event-log appends: one write(2) per line,
  // the path the fleet journal takes, so the delta is the CRC splice.
  const std::string line =
      R"({"type":"campaign","id":"c0","state":"checkpointed","step":12,)"
      R"("reward":3.25,"best_reward":4.5,"token":2,"owner":"wA"})";
  const std::size_t appends = 20000;
  for (const bool checksum : {false, true}) {
    obs::EventLog log;
    const std::string path =
        work_dir + (checksum ? "/events_crc.jsonl" : "/events.jsonl");
    if (!log.Open(path, /*truncate=*/true, checksum)) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < appends; ++i) log.Append(line);
    log.Close();
    report(checksum ? "append_checksummed" : "append_plain", appends,
           SecondsSince(start),
           static_cast<double>(appends * line.size()));
  }

  // 3. Durable publish with and without the integrity footer, and the
  // verify-on-load pass.
  {
    const std::size_t payload_bytes = 256 * 1024;
    std::string payload(payload_bytes, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<char>(i * 37u + 5u);
    }
    const std::size_t iters = 32;
    const std::string plain_path = work_dir + "/plain.bin";
    const std::string framed_path = work_dir + "/framed.bin";

    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      if (!WriteFileDurable(plain_path, payload).ok()) return 1;
    }
    report("publish_durable", iters, SecondsSince(start),
           static_cast<double>(iters * payload_bytes));

    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      if (!WriteFileDurableChecksummed(framed_path, payload).ok()) return 1;
    }
    report("publish_checksummed", iters, SecondsSince(start),
           static_cast<double>(iters * payload_bytes));

    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      auto loaded = ReadFileVerified(framed_path);
      if (!loaded.ok() || loaded->size() != payload_bytes) {
        std::fprintf(stderr, "verify-on-load failed\n");
        return 1;
      }
    }
    report("read_verified", iters, SecondsSince(start),
           static_cast<double>(iters * payload_bytes));
  }

  WriteCsvOutput(config, "storage_integrity.csv", rows);
  WriteJsonOutput(config, "storage_integrity.json", rows);
  std::filesystem::remove_all(work_dir);
  return 0;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Run(); }
