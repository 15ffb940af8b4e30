#include "orch/status.h"

#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string_view>
#include <utility>

#include "obs/json.h"
#include "orch/json_reader.h"
#include "orch/lease.h"
#include "util/fsio.h"

namespace poisonrec::orch {

namespace {

double DefaultNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// kill(pid, 0) probes existence without signalling; EPERM still means
/// the pid is alive (owned by someone else). Meaningful because leases
/// are flock-scoped: the whole fleet shares this kernel.
bool DefaultPidAlive(std::uint64_t pid) {
  if (pid == 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno == EPERM;
}

double GetNumber(const JsonValue& object, std::string_view key,
                 double fallback) {
  const JsonValue* v = object.Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : fallback;
}

std::uint64_t GetUint(const JsonValue& object, std::string_view key) {
  const double v = GetNumber(object, key, 0.0);
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

std::string GetString(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value : "";
}

bool GetBool(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_bool() && v->bool_value;
}

/// One campaign entry of a worker snapshot's "campaigns" array.
struct SnapshotCampaign {
  std::string id;
  std::string slot;
  std::string state;
  std::uint64_t step = 0;
  std::uint64_t total = 0;
  double last_reward = 0.0;
  double best_reward = 0.0;
  std::uint64_t restarts = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t token = 0;
  double step_rate = 0.0;
};

struct ParsedSnapshot {
  WorkerStatusRow row;
  std::vector<SnapshotCampaign> campaigns;
};

/// Parses one verified snapshot payload. False when it is not a
/// worker_status document (counted as snapshots_invalid).
bool ParseSnapshot(const std::string& payload, const std::string& path,
                   ParsedSnapshot* out) {
  StatusOr<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const JsonValue& root = *parsed;
  if (GetString(root, "type") != "worker_status") return false;
  out->row.worker_id = GetString(root, "worker");
  if (out->row.worker_id.empty()) return false;
  out->row.pid = GetUint(root, "pid");
  out->row.host = GetString(root, "host");
  out->row.seq = GetUint(root, "seq");
  out->row.wall_unix = GetNumber(root, "wall_unix", 0.0);
  out->row.uptime_seconds = GetNumber(root, "uptime_seconds", 0.0);
  out->row.publish_period_seconds =
      GetNumber(root, "publish_period_seconds", 0.0);
  out->row.shutdown = GetBool(root, "shutdown");
  out->row.snapshot_path = path;
  const JsonValue* metrics = root.Find("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    const JsonValue* counters = metrics->Find("counters");
    if (counters != nullptr && counters->is_object()) {
      for (const auto& [name, value] : counters->members) {
        if (value.is_number()) out->row.counters[name] = value.number_value;
      }
    }
  }
  const JsonValue* campaigns = root.Find("campaigns");
  if (campaigns != nullptr && campaigns->is_array()) {
    for (const JsonValue& entry : campaigns->array) {
      if (!entry.is_object()) continue;
      SnapshotCampaign campaign;
      campaign.id = GetString(entry, "id");
      if (campaign.id.empty()) continue;
      campaign.slot = GetString(entry, "slot");
      campaign.state = GetString(entry, "state");
      campaign.step = GetUint(entry, "step");
      campaign.total = GetUint(entry, "total");
      campaign.last_reward = GetNumber(entry, "last_reward", 0.0);
      campaign.best_reward = GetNumber(entry, "best_reward", 0.0);
      campaign.restarts = GetUint(entry, "restarts");
      campaign.preemptions = GetUint(entry, "preemptions");
      campaign.token = GetUint(entry, "token");
      campaign.step_rate = GetNumber(entry, "step_rate", 0.0);
      out->campaigns.push_back(std::move(campaign));
    }
  }
  return true;
}

std::string FormatSeconds(double seconds) {
  char buffer[32];
  if (seconds < 0.0) return "-";
  std::snprintf(buffer, sizeof(buffer), "%.1fs", seconds);
  return buffer;
}

std::string FormatRate(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", rate);
  return buffer;
}

std::string Pad(std::string text, std::size_t width) {
  if (text.size() < width) text.append(width - text.size(), ' ');
  text += "  ";
  return text;
}

}  // namespace

const char* WorkerHealthName(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kLive:
      return "live";
    case WorkerHealth::kStale:
      return "stale";
    case WorkerHealth::kExited:
      return "exited";
  }
  return "unknown";
}

std::string TelemetryDir(const std::string& checkpoint_dir,
                         const std::string& telemetry_dir) {
  if (!telemetry_dir.empty()) return telemetry_dir;
  return (std::filesystem::path(checkpoint_dir) / "telemetry").string();
}

FleetStatus CollectFleetStatus(const FleetStatusOptions& options) {
  FleetStatus status;
  const auto now_fn = options.now ? options.now : DefaultNow;
  const auto pid_alive =
      options.pid_alive ? options.pid_alive
                        : std::function<bool(std::uint64_t)>(DefaultPidAlive);
  status.collected_wall_unix = now_fn();

  const std::string telemetry_dir =
      TelemetryDir(options.checkpoint_dir, options.telemetry_dir);

  // -- Journal family: authoritative campaign lifecycle ---------------------
  std::map<std::string, CampaignStatusRow> rows;
  const std::vector<std::string> journal_files =
      FleetJournal::ListJournalFiles(options.journal_path);
  bool journal_present = !journal_files.empty();
  if (journal_present) {
    StatusOr<JournalReplayResult> replayed =
        FleetJournal::Replay(journal_files);
    if (replayed.ok()) {
      status.hygiene.journal = *replayed;
      for (const auto& [id, replay] : replayed->campaigns) {
        CampaignStatusRow& row = rows[id];
        row.id = id;
        row.state = replay.state;
        row.step = replay.steps_completed;
        row.restarts = replay.restarts;
        row.best_reward = replay.best_reward;
        row.token = replay.token;
        if (!replay.step_rewards.empty()) {
          row.last_reward = replay.step_rewards.rbegin()->second;
        }
      }
    } else {
      status.degraded_reasons.push_back("journal replay failed: " +
                                        replayed.status().ToString());
    }
  }

  // -- Leases: current ownership + heartbeat freshness ----------------------
  bool leases_present = false;
  {
    const LeaseManager reader(LeaseDir(options.checkpoint_dir),
                              /*owner_id=*/"poisonrec-status",
                              /*ttl_seconds=*/0.0);
    const std::vector<std::string> ids = reader.List();
    leases_present = !ids.empty();
    for (const std::string& id : ids) {
      StatusOr<LeaseInfo> info = reader.Read(id);
      if (!info.ok()) {
        ++status.hygiene.leases_damaged;
        continue;
      }
      ++status.hygiene.leases_ok;
      CampaignStatusRow& row = rows[id];
      if (row.id.empty()) row.id = id;
      row.token = std::max(row.token, info->token);
      if (!info->owner.empty()) {
        row.owner = info->owner;
        row.lease_held = true;
        row.lease_expired =
            info->ttl_seconds > 0.0 &&
            status.collected_wall_unix - info->renewed_unix >
                info->ttl_seconds;
      }
    }
  }

  // -- Worker snapshots: liveness + live progress ---------------------------
  std::vector<ParsedSnapshot> snapshots;
  bool snapshots_present = false;
  {
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    for (std::filesystem::directory_iterator it(telemetry_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string name = it->path().filename().string();
      constexpr std::string_view kSuffix = ".status.json";
      if (name.size() <= kSuffix.size() ||
          name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) != 0) {
        continue;
      }
      files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    snapshots_present = !files.empty();
    // Keyed by worker id; a duplicate (two files claiming one worker)
    // resolves to the highest publication seq.
    std::map<std::string, ParsedSnapshot> by_worker;
    for (const std::filesystem::path& file : files) {
      FileIntegrity integrity = FileIntegrity::kOk;
      StatusOr<std::string> payload =
          ReadFileVerified(file.string(), &integrity);
      if (!payload.ok()) {
        switch (integrity) {
          case FileIntegrity::kTorn:
            ++status.hygiene.snapshots_torn;
            break;
          case FileIntegrity::kCorrupt:
            ++status.hygiene.snapshots_corrupt;
            break;
          default:
            // Raced a republish or vanished: not damage.
            break;
        }
        continue;
      }
      ParsedSnapshot parsed;
      if (!ParseSnapshot(*payload, file.string(), &parsed)) {
        ++status.hygiene.snapshots_invalid;
        continue;
      }
      ++status.hygiene.snapshots_ok;
      const std::string worker_id = parsed.row.worker_id;
      auto it2 = by_worker.find(worker_id);
      if (it2 == by_worker.end()) {
        by_worker.emplace(worker_id, std::move(parsed));
      } else if (parsed.row.seq > it2->second.row.seq) {
        it2->second = std::move(parsed);
      }
    }
    for (auto& [worker, parsed] : by_worker) {
      snapshots.push_back(std::move(parsed));
    }
  }

  // Classify worker health, then overlay live progress per campaign.
  std::set<std::string> stale_owners;
  for (ParsedSnapshot& snapshot : snapshots) {
    WorkerStatusRow& worker = snapshot.row;
    worker.age_seconds = status.collected_wall_unix - worker.wall_unix;
    if (worker.shutdown) {
      worker.health = WorkerHealth::kExited;
    } else {
      const double stale_after =
          options.stale_after_seconds > 0.0
              ? options.stale_after_seconds
              : std::max(3.0 * worker.publish_period_seconds, 2.0);
      if (!pid_alive(worker.pid)) {
        worker.health = WorkerHealth::kStale;
      } else if (worker.age_seconds > stale_after) {
        worker.health = WorkerHealth::kStale;
      } else {
        worker.health = WorkerHealth::kLive;
      }
    }
    if (worker.health == WorkerHealth::kStale) {
      stale_owners.insert(worker.worker_id);
    }

    for (const SnapshotCampaign& campaign : snapshot.campaigns) {
      CampaignStatusRow& row = rows[campaign.id];
      if (row.id.empty()) row.id = campaign.id;
      row.total = std::max(row.total, campaign.total);
      row.preemptions = std::max(row.preemptions, campaign.preemptions);
      if (campaign.slot != "running") continue;
      // Only a LIVE worker's "running" slot counts as live progress: a
      // stale worker's snapshot is a tombstone, and an exited worker
      // cannot still be running anything.
      if (worker.health != WorkerHealth::kLive) continue;
      row.running = true;
      if (row.owner.empty()) row.owner = worker.worker_id;
      row.step = std::max(row.step, campaign.step);
      row.token = std::max(row.token, campaign.token);
      row.restarts = std::max(row.restarts, campaign.restarts);
      if (campaign.last_reward != 0.0) row.last_reward = campaign.last_reward;
      if (campaign.best_reward > row.best_reward) {
        row.best_reward = campaign.best_reward;
      }
      row.step_rate = std::max(row.step_rate, campaign.step_rate);
    }
  }

  // -- Fold rollups + degradation -------------------------------------------
  for (auto& [id, row] : rows) {
    if (row.running && !IsTerminal(row.state)) {
      row.state = CampaignState::kRunning;
    }
    if (row.total > row.step && row.step_rate > 0.0) {
      row.eta_seconds =
          static_cast<double>(row.total - row.step) / row.step_rate;
    }
    const bool owner_stale =
        !row.owner.empty() && stale_owners.count(row.owner) > 0;
    row.stalled = !IsTerminal(row.state) &&
                  ((row.lease_held && row.lease_expired) || owner_stale);
  }

  for (ParsedSnapshot& snapshot : snapshots) {
    WorkerStatusRow& worker = snapshot.row;
    switch (worker.health) {
      case WorkerHealth::kLive:
        ++status.workers_live;
        break;
      case WorkerHealth::kStale: {
        ++status.workers_stale;
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "worker %s stale (pid %llu %s, heartbeat %.1fs old)",
                      worker.worker_id.c_str(),
                      static_cast<unsigned long long>(worker.pid),
                      pid_alive(worker.pid) ? "alive" : "gone",
                      worker.age_seconds);
        status.degraded_reasons.push_back(detail);
        break;
      }
      case WorkerHealth::kExited:
        ++status.workers_exited;
        break;
    }
    for (const auto& [name, value] : worker.counters) {
      status.counters[name] += value;
    }
    status.workers.push_back(std::move(worker));
  }
  std::sort(status.workers.begin(), status.workers.end(),
            [](const WorkerStatusRow& a, const WorkerStatusRow& b) {
              return a.worker_id < b.worker_id;
            });

  for (auto& [id, row] : rows) {
    ++status.campaigns_by_state[CampaignStateName(row.state)];
    if (row.running) status.aggregate_step_rate += row.step_rate;
    if (row.state == CampaignState::kQuarantined) {
      status.degraded_reasons.push_back("campaign " + id + " quarantined");
    } else if (row.state == CampaignState::kFailed) {
      status.degraded_reasons.push_back("campaign " + id + " failed");
    } else if (row.stalled) {
      status.degraded_reasons.push_back(
          "campaign " + id + " stalled (" +
          (row.lease_held && row.lease_expired ? "lease expired"
                                               : "owner stale") +
          ")");
    }
    status.campaigns.push_back(std::move(row));
  }

  if (!journal_present && !snapshots_present && !leases_present) {
    status.degraded_reasons.push_back(
        "no fleet state found (journal, telemetry and lease inputs all "
        "absent)");
  }
  return status;
}

std::string FleetStatusJson(const FleetStatus& status) {
  std::string workers = "[";
  for (std::size_t i = 0; i < status.workers.size(); ++i) {
    const WorkerStatusRow& w = status.workers[i];
    if (i > 0) workers += ",";
    obs::JsonObjectBuilder b;
    b.Str("worker", w.worker_id)
        .Str("health", WorkerHealthName(w.health))
        .Int("pid", w.pid)
        .Str("host", w.host)
        .Int("seq", w.seq)
        .Num("wall_unix", w.wall_unix)
        .Num("uptime_seconds", w.uptime_seconds)
        .Num("age_seconds", w.age_seconds)
        .Num("publish_period_seconds", w.publish_period_seconds)
        .Bool("shutdown", w.shutdown)
        .Str("snapshot", w.snapshot_path);
    workers += std::move(b).Finish();
  }
  workers += "]";

  std::string campaigns = "[";
  for (std::size_t i = 0; i < status.campaigns.size(); ++i) {
    const CampaignStatusRow& c = status.campaigns[i];
    if (i > 0) campaigns += ",";
    obs::JsonObjectBuilder b;
    b.Str("id", c.id)
        .Str("state", CampaignStateName(c.state))
        .Str("owner", c.owner)
        .Int("token", c.token)
        .Int("step", c.step)
        .Int("total", c.total)
        .Num("last_reward", c.last_reward)
        .Num("best_reward", c.best_reward)
        .Int("restarts", c.restarts)
        .Int("preemptions", c.preemptions)
        .Num("step_rate", c.step_rate)
        .Num("eta_seconds", c.eta_seconds)
        .Bool("running", c.running)
        .Bool("lease_held", c.lease_held)
        .Bool("lease_expired", c.lease_expired)
        .Bool("stalled", c.stalled);
    campaigns += std::move(b).Finish();
  }
  campaigns += "]";

  std::string by_state = "{";
  {
    bool first = true;
    for (const auto& [name, count] : status.campaigns_by_state) {
      if (!first) by_state += ",";
      first = false;
      obs::AppendJsonString(&by_state, name);
      by_state += ":";
      obs::AppendJsonNumber(&by_state, static_cast<std::uint64_t>(count));
    }
  }
  by_state += "}";

  std::string counters = "{";
  {
    bool first = true;
    for (const auto& [name, value] : status.counters) {
      if (!first) counters += ",";
      first = false;
      obs::AppendJsonString(&counters, name);
      counters += ":";
      obs::AppendJsonNumber(&counters, value);
    }
  }
  counters += "}";

  std::string reasons = "[";
  for (std::size_t i = 0; i < status.degraded_reasons.size(); ++i) {
    if (i > 0) reasons += ",";
    obs::AppendJsonString(&reasons, status.degraded_reasons[i]);
  }
  reasons += "]";

  obs::JsonObjectBuilder summary;
  summary.Int("workers", status.workers.size())
      .Int("workers_live", status.workers_live)
      .Int("workers_stale", status.workers_stale)
      .Int("workers_exited", status.workers_exited)
      .Int("campaigns", status.campaigns.size())
      .Raw("campaigns_by_state", by_state)
      .Num("aggregate_step_rate", status.aggregate_step_rate);

  obs::JsonObjectBuilder hygiene;
  hygiene.Int("snapshots_ok", status.hygiene.snapshots_ok)
      .Int("snapshots_torn", status.hygiene.snapshots_torn)
      .Int("snapshots_corrupt", status.hygiene.snapshots_corrupt)
      .Int("snapshots_invalid", status.hygiene.snapshots_invalid)
      .Int("leases_ok", status.hygiene.leases_ok)
      .Int("leases_damaged", status.hygiene.leases_damaged)
      .Int("journal_files_merged", status.hygiene.journal.files_merged)
      .Int("journal_malformed_lines", status.hygiene.journal.malformed_lines)
      .Int("journal_torn_tail_lines", status.hygiene.journal.torn_tail_lines)
      .Int("journal_corrupt_lines", status.hygiene.journal.corrupt_lines)
      .Int("journal_stale_records", status.hygiene.journal.stale_records);

  obs::JsonObjectBuilder root;
  root.Str("type", "fleet_status")
      .Num("collected_wall_unix", status.collected_wall_unix)
      .Bool("degraded", status.degraded())
      .Int("exit_code", static_cast<std::uint64_t>(status.ExitCode()))
      .Raw("degraded_reasons", reasons)
      .Raw("summary", std::move(summary).Finish())
      .Raw("hygiene", std::move(hygiene).Finish())
      .Raw("workers", workers)
      .Raw("campaigns", campaigns)
      .Raw("counters", counters);
  return std::move(root).Finish();
}

std::string FormatFleetStatusTable(const FleetStatus& status) {
  std::string out;
  out += "fleet status: ";
  out += status.degraded() ? "DEGRADED (exit 2)" : "healthy (exit 0)";
  out += "\n";

  char line[256];
  std::snprintf(line, sizeof(line),
                "workers: %zu live, %zu stale, %zu exited | campaigns: %zu",
                status.workers_live, status.workers_stale,
                status.workers_exited, status.campaigns.size());
  out += line;
  bool first = true;
  for (const auto& [name, count] : status.campaigns_by_state) {
    out += first ? " (" : ", ";
    first = false;
    out += name + " " + std::to_string(count);
  }
  if (!first) out += ")";
  std::snprintf(line, sizeof(line), " | throughput: %.2f steps/s\n",
                status.aggregate_step_rate);
  out += line;

  if (!status.campaigns.empty()) {
    out += "\n";
    out += Pad("CAMPAIGN", 16) + Pad("STATE", 12) + Pad("OWNER", 18) +
           Pad("TOK", 4) + Pad("STEP", 9) + Pad("REWARD", 8) +
           Pad("RATE/S", 7) + Pad("ETA", 8) + "FLAGS\n";
    for (const CampaignStatusRow& c : status.campaigns) {
      std::string step = std::to_string(c.step);
      if (c.total > 0) step += "/" + std::to_string(c.total);
      char reward[32];
      std::snprintf(reward, sizeof(reward), "%.4f", c.last_reward);
      std::string flags;
      if (c.stalled) flags += "stalled ";
      if (c.lease_held) {
        flags += c.lease_expired ? "lease-expired " : "leased ";
      }
      if (c.restarts > 0) {
        flags += "restarts=" + std::to_string(c.restarts) + " ";
      }
      if (c.preemptions > 0) {
        flags += "preemptions=" + std::to_string(c.preemptions) + " ";
      }
      if (!flags.empty()) flags.pop_back();
      out += Pad(c.id, 16) + Pad(CampaignStateName(c.state), 12) +
             Pad(c.owner.empty() ? "-" : c.owner, 18) +
             Pad(std::to_string(c.token), 4) + Pad(step, 9) +
             Pad(reward, 8) + Pad(FormatRate(c.step_rate), 7) +
             Pad(FormatSeconds(c.eta_seconds), 8) + flags + "\n";
    }
  }

  if (!status.workers.empty()) {
    out += "\n";
    out += Pad("WORKER", 18) + Pad("HEALTH", 7) + Pad("PID", 8) +
           Pad("AGE", 8) + Pad("SEQ", 5) + "HOST\n";
    for (const WorkerStatusRow& w : status.workers) {
      out += Pad(w.worker_id, 18) + Pad(WorkerHealthName(w.health), 7) +
             Pad(std::to_string(w.pid), 8) +
             Pad(FormatSeconds(w.age_seconds), 8) +
             Pad(std::to_string(w.seq), 5) + w.host + "\n";
    }
  }

  const FleetStatusHygiene& h = status.hygiene;
  std::snprintf(line, sizeof(line),
                "\nhygiene: snapshots %zu ok / %zu torn / %zu corrupt / %zu "
                "invalid; leases %zu ok / %zu damaged; journal %zu file(s), "
                "%llu malformed / %llu torn-tail / %llu corrupt / %llu stale "
                "line(s)\n",
                h.snapshots_ok, h.snapshots_torn, h.snapshots_corrupt,
                h.snapshots_invalid, h.leases_ok, h.leases_damaged,
                h.journal.files_merged,
                static_cast<unsigned long long>(h.journal.malformed_lines),
                static_cast<unsigned long long>(h.journal.torn_tail_lines),
                static_cast<unsigned long long>(h.journal.corrupt_lines),
                static_cast<unsigned long long>(h.journal.stale_records));
  out += line;

  if (status.degraded()) {
    out += "degraded because:\n";
    for (const std::string& reason : status.degraded_reasons) {
      out += "  - " + reason + "\n";
    }
  }
  return out;
}

}  // namespace poisonrec::orch
