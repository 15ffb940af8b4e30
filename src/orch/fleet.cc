#include "orch/fleet.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "orch/status.h"
#include "util/csv.h"
#include "util/fsio.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace poisonrec::orch {

namespace {

/// Serializes one campaign outcome as a JSON object for the report.
std::string OutcomeJson(const CampaignOutcome& outcome) {
  std::string rewards = "[";
  bool first = true;
  for (const auto& [step, reward] : outcome.step_rewards) {
    if (!first) rewards += ",";
    first = false;
    rewards += "[";
    obs::AppendJsonNumber(&rewards, step);
    rewards += ",";
    obs::AppendJsonNumber(&rewards, reward);
    rewards += "]";
  }
  rewards += "]";
  obs::JsonObjectBuilder b;
  b.Str("id", outcome.id)
      .Str("state", CampaignStateName(outcome.state))
      .Int("steps_completed", outcome.steps_completed)
      .Int("restarts", outcome.restarts)
      .Int("rollbacks", outcome.rollbacks)
      .Num("best_reward", outcome.best_reward)
      .Num("wall_seconds", outcome.wall_seconds)
      .Bool("interrupted", outcome.interrupted)
      .Bool("recovered", outcome.recovered_from_journal)
      .Int("preemptions", outcome.preemptions)
      .Bool("fenced", outcome.fenced)
      .Bool("sibling", outcome.sibling_owned)
      .Int("token", outcome.token)
      .Str("detail", outcome.detail)
      .Raw("step_rewards", rewards);
  return std::move(b).Finish();
}

std::string FormatDouble(double v) {
  std::string out;
  obs::AppendJsonNumber(&out, v);
  return out;
}

/// CSV cells are comma-split without quoting (util/csv), so free-text
/// details must not introduce field breaks.
std::string CsvSafe(std::string text) {
  std::replace(text.begin(), text.end(), ',', ';');
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

/// Reconstructs a reportable outcome from folded journal state — used
/// for terminal campaigns recovered on resume and for campaigns a
/// sibling worker owns or finished.
CampaignOutcome OutcomeFromReplay(const std::string& id,
                                  const CampaignReplay& replay,
                                  bool sibling) {
  CampaignOutcome outcome;
  static_cast<CampaignReplay&>(outcome) = replay;
  outcome.id = id;
  if (outcome.detail.empty()) outcome.detail = "recovered from journal";
  outcome.recovered_from_journal = true;
  outcome.sibling_owned = sibling;
  return outcome;
}

/// The report's view of a campaign a sibling owns or finished: the
/// merged journal is authoritative, but when this worker lost the
/// campaign mid-run (`local.fenced`) the report must still say it was
/// fenced out, with the local run's wall clock.
CampaignOutcome WithLocalFencing(CampaignOutcome sibling,
                                 const CampaignOutcome& local) {
  if (local.fenced) {
    sibling.fenced = true;
    sibling.wall_seconds = local.wall_seconds;
  }
  return sibling;
}

double WallUnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string HostName() {
  char buffer[256];
  if (::gethostname(buffer, sizeof(buffer)) != 0) return "unknown";
  buffer[sizeof(buffer) - 1] = '\0';
  return buffer;
}

/// Highest fencing token campaign `id` has used: its journal epoch or
/// any `<id>.t<N>.ckpt` name. A new lease epoch must exceed it even when
/// the lease file itself was deleted or damaged.
std::uint64_t TokenFloor(const std::string& checkpoint_dir,
                         const std::string& id,
                         std::uint64_t journal_token) {
  const auto checkpoints = ListCheckpoints(checkpoint_dir, id);
  return checkpoints.empty()
             ? journal_token
             : std::max(journal_token, checkpoints.front().first);
}

}  // namespace

int FleetResult::ExitCode() const {
  if (!status.ok()) return 1;
  if (quarantined + failed + interrupted > 0) return 2;
  return 0;
}

FleetOrchestrator::FleetOrchestrator(FleetPlan plan,
                                     const data::Dataset* dataset,
                                     FleetOptions options)
    : plan_(std::move(plan)),
      dataset_(dataset),
      options_(std::move(options)) {
  POISONREC_CHECK(dataset_ != nullptr);
}

void FleetOrchestrator::RequestShutdown() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    sched_cv_.notify_all();
  }
  // Wake the watchdog too so a long poll period never delays shutdown
  // propagation (it re-checks stop_ on every wake).
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  watchdog_cv_.notify_all();
}

std::string FleetOrchestrator::WorkerStatusJson(bool shutdown) {
  std::string campaigns = "[";
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    bool first = true;
    for (const auto& entry : entries_) {
      const char* slot_name = "ready";
      switch (entry->slot) {
        case Slot::kReady:
          slot_name = "ready";
          break;
        case Slot::kRunning:
          slot_name = "running";
          break;
        case Slot::kDone:
          slot_name = "done";
          break;
        case Slot::kSibling:
          slot_name = "sibling";
          break;
      }
      // Best available view, most authoritative last: journal replay,
      // then a final local outcome, then the live supervisor.
      static const CampaignReplay kNoHistory;
      const CampaignReplay& view = entry->has_outcome ? entry->outcome
                                   : entry->replay.has_value()
                                       ? *entry->replay
                                       : kNoHistory;
      std::string state = CampaignStateName(view.state);
      std::uint64_t step = view.steps_completed;
      const std::uint64_t restarts = view.restarts;
      std::uint64_t token = view.token;
      double last_reward = view.step_rewards.empty()
                               ? 0.0
                               : view.step_rewards.rbegin()->second;
      double best_reward = view.best_reward;
      double step_rate = 0.0;
      double running_seconds = 0.0;
      if (entry->slot == Slot::kRunning && entry->supervisor != nullptr) {
        state = CampaignStateName(CampaignState::kRunning);
        step = entry->supervisor->committed_steps();
        last_reward = entry->supervisor->last_committed_reward();
        best_reward = entry->supervisor->best_reward_so_far();
        step_rate = entry->supervisor->CommittedStepRate();
        token = entry->supervisor->lease_token();
        running_seconds = entry->supervisor->SecondsSinceStart();
      }
      obs::JsonObjectBuilder row;
      row.Str("id", entry->spec.id)
          .Str("slot", slot_name)
          .Str("state", state)
          .Int("step", step)
          .Int("total", entry->spec.steps)
          .Num("last_reward", last_reward)
          .Num("best_reward", best_reward)
          .Int("restarts", restarts)
          .Int("preemptions", entry->preemptions)
          .Int("token", token)
          .Num("step_rate", step_rate)
          .Num("running_seconds", running_seconds);
      if (!first) campaigns += ",";
      first = false;
      campaigns += std::move(row).Finish();
    }
  }
  campaigns += "]";

  obs::JsonObjectBuilder b;
  b.Str("type", "worker_status")
      .Str("worker", options_.worker_id)
      .Int("pid", static_cast<std::uint64_t>(::getpid()))
      .Str("host", HostName())
      .Int("seq", ++status_seq_)
      // The aggregator (orch/status.h) trusts wall_unix for staleness:
      // it is cross-process comparable, unlike the steady-clock uptime.
      .Num("wall_unix", WallUnixSeconds())
      .Num("uptime_seconds",
           run_start_ticks_ == 0
               ? 0.0
               : internal::ElapsedSecondsSince(run_start_ticks_))
      .Num("publish_period_seconds", options_.status_publish_seconds)
      .Num("lease_ttl_seconds", options_.lease_ttl_seconds)
      .Bool("shutdown", shutdown)
      .Raw("campaigns", campaigns)
      .Raw("metrics", obs::MetricsRegistry::Global().SnapshotJson());
  return std::move(b).Finish();
}

void FleetOrchestrator::PublishWorkerStatus(bool shutdown) {
  if (!options_.publish_status) return;
  const std::string json = WorkerStatusJson(shutdown);
  const std::string path =
      (std::filesystem::path(
           TelemetryDir(options_.checkpoint_dir, options_.telemetry_dir)) /
       (options_.worker_id + ".status.json"))
          .string();
  const Status wrote = WriteFileDurableChecksummed(path, json);
  if (wrote.ok()) {
    obs::MetricsRegistry::Global()
        .GetCounter("poisonrec_fleet_status_snapshots_total")
        ->Increment();
  } else {
    POISONREC_LOG(Warning) << "fleet: status snapshot publish failed: "
                           << wrote.ToString();
  }
  last_status_ticks_ = internal::NowTicks();
}

StatusOr<JournalReplayResult> FleetOrchestrator::MergedReplay() const {
  return FleetJournal::Replay(
      FleetJournal::ListJournalFiles(options_.journal_path));
}

Status FleetOrchestrator::Submit(CampaignSpec spec) {
  POISONREC_RETURN_NOT_OK(ValidateCampaignSpec(spec));
  std::lock_guard<std::mutex> lock(sched_mu_);
  if (!accepting_) {
    return Status::FailedPrecondition(
        "fleet is not running; campaigns can only be submitted while Run "
        "is active");
  }
  for (const auto& entry : entries_) {
    if (entry->spec.id == spec.id) {
      return Status::AlreadyExists("campaign id \"" + spec.id +
                                   "\" is already scheduled");
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->spec = std::move(spec);
  entry->slot = Slot::kReady;
  CampaignJournalRecord record;
  record.campaign_id = entry->spec.id;
  record.state = CampaignState::kPending;
  record.detail = "submitted";
  journal_.Record(record);
  POISONREC_LOG(Info) << "fleet: accepted submission " << entry->spec.id
                      << " (priority " << entry->spec.priority << ")";
  entries_.push_back(std::move(entry));
  sched_cv_.notify_all();
  return Status::OK();
}

void FleetOrchestrator::IngestSubmissions() {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (std::filesystem::directory_iterator it(options_.submit_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".json") continue;
    files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& file : files) {
    const std::string name = file.filename().string();
    if (ingested_submissions_.count(name) != 0) continue;
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    StatusOr<CampaignSpec> spec = ParseCampaignSpecText(buffer.str());
    if (!spec.ok()) {
      // A file caught mid-write (or not readable yet) parses as cut-off
      // JSON: retry it on later polls, and warn once per size and
      // modification time it shows.
      const SubmissionStamp stamp = {std::filesystem::file_size(file, ec),
                                     std::filesystem::last_write_time(file, ec)};
      const auto [seen, first] = unparsed_submissions_.try_emplace(name, stamp);
      if (first || seen->second != stamp) {
        seen->second = stamp;
        POISONREC_LOG(Warning) << "fleet: cannot parse submission " << file
                               << " (retried while it changes): "
                               << spec.status().ToString();
      }
      continue;
    }
    ingested_submissions_.insert(name);
    unparsed_submissions_.erase(name);
    const Status submitted = Submit(std::move(spec).value());
    if (!submitted.ok() &&
        submitted.code() != StatusCode::kAlreadyExists) {
      POISONREC_LOG(Warning) << "fleet: rejected submission " << file << ": "
                             << submitted.ToString();
    }
  }
}

FleetOrchestrator::Entry* FleetOrchestrator::BestReadyLocked() {
  Entry* best = nullptr;
  for (const auto& entry : entries_) {
    if (entry->slot != Slot::kReady) continue;
    if (best == nullptr || entry->spec.priority > best->spec.priority) {
      best = entry.get();
    }
  }
  return best;
}

void FleetOrchestrator::RefreshSiblingsLocked() {
  StatusOr<JournalReplayResult> merged = MergedReplay();
  if (!merged.ok()) {
    POISONREC_LOG(Warning) << "fleet: sibling journal merge failed: "
                           << merged.status().ToString();
    return;
  }
  for (const auto& entry : entries_) {
    if (entry->slot != Slot::kSibling) continue;
    const auto it = merged->campaigns.find(entry->spec.id);
    if (it == merged->campaigns.end()) continue;
    // Inherit the sibling's committed frontier: if we later seize the
    // lease, the supervisor resumes from these steps (and the sibling's
    // token-suffixed checkpoint), keeping recovery bit-identical.
    entry->replay = it->second;
    if (IsTerminal(it->second.state)) {
      entry->outcome = WithLocalFencing(
          OutcomeFromReplay(entry->spec.id, it->second, /*sibling=*/true),
          entry->outcome);
      entry->has_outcome = true;
      entry->slot = Slot::kDone;
    }
  }
}

void FleetOrchestrator::WorkerLoop() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  while (true) {
    if (stop_.load(std::memory_order_acquire)) {
      // Drain: queued campaigns are left for a later run (or a
      // sibling); they journal nothing and report as interrupted.
      for (const auto& entry : entries_) {
        if (entry->slot != Slot::kReady) continue;
        CampaignOutcome outcome;
        static_cast<CampaignReplay&>(outcome) =
            entry->replay.value_or(CampaignReplay());
        // Nothing ran, so no journal record carries a token.
        outcome.token = 0;
        outcome.id = entry->spec.id;
        outcome.preemptions = entry->preemptions;
        outcome.state = outcome.steps_completed > 0
                            ? CampaignState::kCheckpointed
                            : CampaignState::kPending;
        outcome.interrupted = true;
        outcome.detail = "not started: fleet shutdown requested";
        entry->outcome = std::move(outcome);
        entry->has_outcome = true;
        entry->slot = Slot::kDone;
      }
      sched_cv_.notify_all();
      return;
    }

    Entry* entry = BestReadyLocked();
    if (entry != nullptr) {
      // Mark the claim before dropping the lock so no sibling worker
      // thread races us to the same entry.
      entry->slot = Slot::kRunning;
      const std::uint64_t journal_token =
          entry->replay.has_value() ? entry->replay->token : 0;
      lock.unlock();
      StatusOr<LeaseInfo> lease = leases_->Acquire(
          entry->spec.id, TokenFloor(options_.checkpoint_dir, entry->spec.id,
                                     journal_token));
      lock.lock();
      if (!lease.ok()) {
        // A live sibling beat us to it; anything else (I/O) is worth a
        // warning but is handled the same way — re-probed later.
        entry->slot = Slot::kSibling;
        if (lease.status().code() != StatusCode::kUnavailable) {
          POISONREC_LOG(Warning)
              << "fleet: lease acquire failed for " << entry->spec.id
              << ": " << lease.status().ToString();
        }
        continue;
      }
      const std::uint64_t token = lease->token;

      SupervisorOptions supervisor_options;
      supervisor_options.checkpoint_dir = options_.checkpoint_dir;
      supervisor_options.journal = &journal_;
      supervisor_options.fleet_stop = &stop_;
      supervisor_options.replay = entry->replay;
      supervisor_options.leases = leases_.get();
      supervisor_options.lease_token = token;
      supervisor_options.preemptions = entry->preemptions;
      supervisor_options.retry_sleep = options_.retry_sleep;
      supervisor_options.restart_sleep = options_.restart_sleep;
      auto supervisor = std::make_shared<CampaignSupervisor>(
          entry->spec, dataset_, std::move(supervisor_options));
      entry->supervisor = supervisor;
      entry->last_renew_ticks = internal::NowTicks();

      lock.unlock();
      CampaignOutcome outcome;
      bool crashed = false;
      try {
        outcome = supervisor->Run();
      } catch (const std::exception& e) {
        crashed = true;
        outcome.id = entry->spec.id;
        outcome.state = CampaignState::kFailed;
        outcome.detail = std::string("uncaught exception: ") + e.what();
        CampaignJournalRecord record;
        record.campaign_id = outcome.id;
        record.state = CampaignState::kFailed;
        record.token = token;
        record.owner = leases_->owner_id();
        record.detail = outcome.detail;
        journal_.Record(record);
      }
      if (!outcome.fenced) {
        const Status released = leases_->Release(entry->spec.id, token);
        if (!released.ok()) {
          POISONREC_LOG(Warning)
              << "fleet: lease release failed for " << entry->spec.id
              << ": " << released.ToString();
        }
      }
      lock.lock();
      entry->supervisor.reset();
      if (outcome.fenced) {
        // The seizing sibling owns the campaign now; our provisional
        // outcome is kept only for the fenced flag — the final merged
        // replay supplies the authoritative state.
        entry->outcome = std::move(outcome);
        entry->has_outcome = true;
        entry->slot = Slot::kSibling;
      } else if (!crashed && outcome.state == CampaignState::kPreempted) {
        entry->preemptions = outcome.preemptions;
        entry->replay = static_cast<const CampaignReplay&>(outcome);
        entry->outcome = std::move(outcome);
        entry->has_outcome = true;
        entry->slot = Slot::kReady;
      } else {
        entry->outcome = std::move(outcome);
        entry->has_outcome = true;
        entry->slot = Slot::kDone;
      }
      sched_cv_.notify_all();
      continue;
    }

    bool have_running = false;
    bool have_sibling = false;
    for (const auto& e : entries_) {
      have_running |= e->slot == Slot::kRunning;
      have_sibling |= e->slot == Slot::kSibling;
    }
    if (!have_running && !have_sibling) return;  // drained

    double wait_seconds = std::max(options_.watchdog_poll_seconds, 0.001);
    if (have_sibling) {
      // Probe cadence for sibling liveness: a fraction of the TTL so a
      // dead sibling's campaigns are seized promptly.
      wait_seconds = std::min(
          wait_seconds, std::max(options_.lease_ttl_seconds / 4.0, 0.01));
    }
    ++idle_workers_;
    sched_cv_.wait_for(lock,
                       std::chrono::duration<double>(wait_seconds));
    --idle_workers_;
    if (have_sibling && !stop_.load(std::memory_order_acquire)) {
      RefreshSiblingsLocked();
      for (const auto& e : entries_) {
        // Re-queue: the claim path re-acquires under the flock, which
        // is where the seizure (token bump) actually happens.
        if (e->slot == Slot::kSibling && leases_->Seizable(e->spec.id)) {
          e->slot = Slot::kReady;
        }
      }
    }
  }
}

void FleetOrchestrator::WatchdogLoop() {
  const double poll = std::max(options_.watchdog_poll_seconds, 0.001);
  std::unique_lock<std::mutex> wlock(watchdog_mu_);
  while (!watchdog_stop_) {
    // Condition-variable wait instead of a fixed sleep: ShutdownWatchdog
    // and RequestShutdown wake it immediately, so join latency and
    // shutdown propagation never wait out a long poll period.
    watchdog_cv_.wait_for(wlock, std::chrono::duration<double>(poll),
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    wlock.unlock();

    if (!options_.submit_dir.empty()) IngestSubmissions();

    // Stall/deadline scan on a snapshot: Abort only flips atomics and
    // the cancel token, but holding shared_ptrs keeps a supervisor
    // alive even if its worker finishes mid-scan.
    std::vector<std::shared_ptr<CampaignSupervisor>> running;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      for (const auto& entry : entries_) {
        if (entry->slot == Slot::kRunning && entry->supervisor != nullptr) {
          running.push_back(entry->supervisor);
        }
      }
    }
    for (const auto& supervisor : running) {
      if (!supervisor->running()) continue;
      const CampaignSpec& spec = supervisor->spec();
      if (spec.deadline_seconds > 0.0 &&
          supervisor->SecondsSinceStart() > spec.deadline_seconds) {
        supervisor->Abort(
            "deadline exceeded (" + std::to_string(spec.deadline_seconds) +
                "s wall clock)",
            /*allow_restart=*/false);
      } else if (spec.stall_timeout_seconds > 0.0 &&
                 supervisor->SecondsSinceHeartbeat() >
                     spec.stall_timeout_seconds) {
        supervisor->Abort(
            "stall: no heartbeat for " +
                std::to_string(spec.stall_timeout_seconds) + "s",
            /*allow_restart=*/true);
      }
    }

    // Lease heartbeats every ttl/3: a worker alive but past renewal is
    // indistinguishable from a dead one to siblings, so renewal rides
    // the watchdog, which keeps ticking even when campaigns block.
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      for (const auto& entry : entries_) {
        if (entry->slot != Slot::kRunning || entry->supervisor == nullptr) {
          continue;
        }
        if (internal::ElapsedSecondsSince(entry->last_renew_ticks) <
            options_.lease_ttl_seconds / 3.0) {
          continue;
        }
        const Status renewed = leases_->Renew(
            entry->spec.id, entry->supervisor->lease_token());
        if (renewed.ok()) {
          entry->last_renew_ticks = internal::NowTicks();
        } else if (renewed.code() == StatusCode::kFailedPrecondition) {
          // Fenced out between commits (e.g. a SIGSTOP outlasted the
          // TTL): stop the campaign before it writes anything else.
          entry->supervisor->RequestSoftStop(SoftStopKind::kFenced);
        } else {
          POISONREC_LOG(Warning)
              << "fleet: lease renew failed for " << entry->spec.id << ": "
              << renewed.ToString();
        }
      }
    }

    // Priority preemption: a higher-priority campaign is ready, every
    // worker is busy — soft-stop the lowest-priority running campaign
    // at its next step boundary. One victim per poll; the re-queued
    // victim's worker picks the high-priority campaign next.
    if (!stop_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (idle_workers_ == 0) {
        const Entry* best = BestReadyLocked();
        if (best != nullptr) {
          Entry* victim = nullptr;
          for (const auto& entry : entries_) {
            if (entry->slot != Slot::kRunning ||
                entry->supervisor == nullptr) {
              continue;
            }
            if (entry->supervisor->stop_pending()) continue;
            if (entry->spec.max_preemptions == 0 ||
                entry->preemptions >= entry->spec.max_preemptions) {
              continue;  // preemption-immune: starvation cap reached
            }
            if (entry->spec.priority >= best->spec.priority) continue;
            if (victim == nullptr ||
                entry->spec.priority < victim->spec.priority) {
              victim = entry.get();
            }
          }
          if (victim != nullptr) {
            POISONREC_LOG(Info)
                << "fleet: preempting " << victim->spec.id << " (priority "
                << victim->spec.priority << ") for " << best->spec.id
                << " (priority " << best->spec.priority << ")";
            victim->supervisor->RequestSoftStop(SoftStopKind::kPreempt);
          }
        }
      }
    }

    // Status snapshots ride the watchdog: it keeps ticking even while
    // every worker blocks inside a campaign step.
    if (options_.publish_status &&
        internal::ElapsedSecondsSince(last_status_ticks_) >=
            std::max(options_.status_publish_seconds, 0.01)) {
      PublishWorkerStatus(/*shutdown=*/false);
    }

    wlock.lock();
  }
}

void FleetOrchestrator::ShutdownWatchdog() {
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  watchdog_stop_ = true;
  watchdog_cv_.notify_all();
}

Status FleetOrchestrator::WriteJsonReport(const FleetResult& result) const {
  std::string campaigns = "[";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    if (i > 0) campaigns += ",";
    campaigns += OutcomeJson(result.outcomes[i]);
  }
  campaigns += "]";
  obs::JsonObjectBuilder journal;
  journal.Int("files_merged", result.journal.files_merged)
      .Int("malformed_lines", result.journal.malformed_lines)
      .Int("torn_tail_lines", result.journal.torn_tail_lines)
      .Int("stale_records", result.journal.stale_records)
      .Int("corrupt_lines", result.journal.corrupt_lines)
      // Interior records replay had to skip for either reason —
      // structural damage or checksum rot.
      .Int("skipped_records",
           result.journal.malformed_lines + result.journal.corrupt_lines)
      .Int("checkpoints_quarantined", result.checkpoints_quarantined);
  obs::JsonObjectBuilder summary;
  summary.Int("campaigns", result.outcomes.size())
      .Int("done", result.done)
      .Int("quarantined", result.quarantined)
      .Int("failed", result.failed)
      .Int("interrupted", result.interrupted)
      .Int("recovered", result.recovered)
      .Int("preemptions", result.preemptions)
      .Int("fenced", result.fenced)
      .Int("sibling", result.sibling_owned)
      .Num("wall_seconds", result.wall_seconds)
      .Int("exit_code", static_cast<std::uint64_t>(result.ExitCode()));
  obs::JsonObjectBuilder report;
  report.Str("type", "fleet_report")
      .Str("plan", result.plan_name)
      .Str("dataset", plan_.dataset)
      .Str("worker", options_.worker_id)
      .Raw("summary", std::move(summary).Finish())
      .Raw("journal", std::move(journal).Finish())
      .Raw("campaigns", campaigns);
  std::ofstream out(options_.report_json_path,
                    std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open fleet report " +
                           options_.report_json_path);
  }
  out << std::move(report).Finish() << "\n";
  out.flush();
  if (!out) {
    return Status::IoError("failed writing fleet report " +
                           options_.report_json_path);
  }
  return Status::OK();
}

Status FleetOrchestrator::WriteCsvReport(const FleetResult& result) const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"campaign_id", "state", "steps_completed", "restarts",
                  "rollbacks", "best_reward", "wall_seconds", "interrupted",
                  "recovered", "preemptions", "detail"});
  for (const CampaignOutcome& outcome : result.outcomes) {
    rows.push_back({CsvSafe(outcome.id), CampaignStateName(outcome.state),
                    std::to_string(outcome.steps_completed),
                    std::to_string(outcome.restarts),
                    std::to_string(outcome.rollbacks),
                    FormatDouble(outcome.best_reward),
                    FormatDouble(outcome.wall_seconds),
                    outcome.interrupted ? "1" : "0",
                    outcome.recovered_from_journal ? "1" : "0",
                    std::to_string(outcome.preemptions),
                    CsvSafe(outcome.detail)});
  }
  return WriteCsv(options_.report_csv_path, rows);
}

FleetResult FleetOrchestrator::Run() {
  FleetResult result;
  result.plan_name = plan_.name;
  const std::uint64_t start_ticks = internal::NowTicks();

  result.status = ValidatePlan(plan_);
  if (!result.status.ok()) return result;
  // Checked before anything touches disk. A zero TTL would mark every
  // lease expired and renew it on every watchdog poll.
  if (!std::isfinite(options_.lease_ttl_seconds) ||
      options_.lease_ttl_seconds <= 0.0) {
    result.status = Status::InvalidArgument(
        "lease TTL must be finite and > 0 seconds, got " +
        FormatDouble(options_.lease_ttl_seconds));
    return result;
  }
  if (options_.worker_id.empty()) options_.worker_id = DefaultWorkerId();
  run_start_ticks_ = start_ticks;

  std::error_code ec;
  std::filesystem::create_directories(options_.checkpoint_dir, ec);
  if (ec) {
    result.status = Status::IoError("cannot create checkpoint directory " +
                                    options_.checkpoint_dir + ": " +
                                    ec.message());
    return result;
  }
  if (options_.publish_status) {
    // Best effort: a failed mkdir surfaces as a publish warning, not a
    // fleet failure.
    std::error_code telemetry_ec;
    std::filesystem::create_directories(
        TelemetryDir(options_.checkpoint_dir, options_.telemetry_dir),
        telemetry_ec);
  }
  const std::filesystem::path journal_dir =
      std::filesystem::path(options_.journal_path).parent_path();
  if (!journal_dir.empty()) {
    std::filesystem::create_directories(journal_dir, ec);
  }
  leases_ = std::make_unique<LeaseManager>(
      LeaseDir(options_.checkpoint_dir), options_.worker_id,
      options_.lease_ttl_seconds);
  result.status = leases_->Init();
  if (!result.status.ok()) return result;

  // Replay before appending: earlier runs and sibling workers may
  // already hold progress, and the journal family is append-only.
  StatusOr<JournalReplayResult> replayed = MergedReplay();
  if (!replayed.ok()) {
    result.status = replayed.status();
    return result;
  }
  const std::map<std::string, CampaignReplay> replay =
      std::move(replayed->campaigns);
  if (!replay.empty()) {
    POISONREC_LOG(Info) << "fleet resume: replayed " << replay.size()
                        << " campaign(s) from " << replayed->files_merged
                        << " journal file(s)";
  }
  result.status = journal_.Open(
      FleetJournal::WorkerJournalPath(options_.journal_path,
                                      options_.worker_id));
  if (!result.status.ok()) return result;

  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    for (const CampaignSpec& spec : plan_.campaigns) {
      auto entry = std::make_unique<Entry>();
      entry->spec = spec;
      const auto it = replay.find(spec.id);
      if (it != replay.end()) {
        entry->replay = it->second;
        if (IsTerminal(it->second.state)) {
          entry->outcome =
              OutcomeFromReplay(spec.id, it->second, /*sibling=*/false);
          entry->has_outcome = true;
          entry->slot = Slot::kDone;
        }
      } else {
        CampaignJournalRecord record;
        record.campaign_id = spec.id;
        record.state = CampaignState::kPending;
        journal_.Record(record);
      }
      entries_.push_back(std::move(entry));
    }
    accepting_ = true;
    worker_count_ = std::max<std::size_t>(
        1, std::min(options_.max_concurrent, entries_.size()));
  }

  // Initial snapshot: `fleet --status` sees this worker (and every
  // campaign's pending/replayed state) before the first step commits.
  PublishWorkerStatus(/*shutdown=*/false);

  std::thread watchdog([this] { WatchdogLoop(); });
  // Workers are the global pool's one job; each campaign's internals are
  // single-threaded (MakeAttackerConfig), so no nested-parallelism
  // inversion and the structure stays fork-safe for crash tests.
  ParallelFor(worker_count_, worker_count_, [&](std::size_t) {
    WorkerLoop();
  });
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    accepting_ = false;
  }
  ShutdownWatchdog();
  watchdog.join();

  // Final merged replay: fills in campaigns owned or finished by sibling
  // workers and surfaces journal hygiene counters in the report.
  StatusOr<JournalReplayResult> final_replay = MergedReplay();
  if (final_replay.ok()) {
    result.journal = *final_replay;
  } else {
    POISONREC_LOG(Warning) << "fleet: final journal merge failed: "
                           << final_replay.status().ToString();
  }

  // Final snapshot before folding the report: marks this worker cleanly
  // exited (`"shutdown":true`) so the aggregator never calls a finished
  // worker stale, and freezes every campaign's last known state.
  PublishWorkerStatus(/*shutdown=*/true);

  std::lock_guard<std::mutex> lock(sched_mu_);
  for (const auto& entry : entries_) {
    CampaignOutcome outcome;
    if (entry->slot == Slot::kSibling) {
      bool filled = false;
      if (final_replay.ok()) {
        const auto it = final_replay->campaigns.find(entry->spec.id);
        if (it != final_replay->campaigns.end()) {
          outcome = OutcomeFromReplay(entry->spec.id, it->second,
                                      /*sibling=*/true);
          if (!IsTerminal(outcome.state)) {
            // The sibling is still working (or died mid-run): resumable,
            // not finished — partial from this worker's point of view.
            outcome.interrupted = true;
            outcome.recovered_from_journal = false;
            outcome.detail = "owned by sibling worker";
          }
          filled = true;
        }
      }
      if (!filled) {
        outcome.id = entry->spec.id;
        outcome.state = CampaignState::kPending;
        outcome.interrupted = true;
        outcome.sibling_owned = true;
        outcome.detail = "owned by sibling worker";
      }
      outcome = WithLocalFencing(std::move(outcome), entry->outcome);
    } else if (entry->has_outcome) {
      outcome = entry->outcome;
    } else {
      // Defensive: with the queue drained this cannot happen, but a
      // worker that died mid-pop must not leave a default outcome.
      outcome.id = entry->spec.id;
      outcome.state = CampaignState::kPending;
      outcome.interrupted = true;
      outcome.detail = "never scheduled";
    }
    result.outcomes.push_back(std::move(outcome));
  }

  for (const CampaignOutcome& outcome : result.outcomes) {
    result.preemptions += outcome.preemptions;
    result.checkpoints_quarantined += outcome.checkpoints_quarantined;
    if (outcome.fenced) ++result.fenced;
    if (outcome.sibling_owned) ++result.sibling_owned;
    if (outcome.recovered_from_journal) ++result.recovered;
    if (outcome.interrupted) {
      ++result.interrupted;
      continue;
    }
    switch (outcome.state) {
      case CampaignState::kDone:
        ++result.done;
        break;
      case CampaignState::kQuarantined:
        ++result.quarantined;
        break;
      case CampaignState::kFailed:
        ++result.failed;
        break;
      default:
        ++result.interrupted;
        break;
    }
  }
  result.wall_seconds = internal::ElapsedSecondsSince(start_ticks);

  obs::MetricsRegistry::Global()
      .GetGauge("poisonrec_fleet_last_run_campaigns")
      ->Set(static_cast<double>(result.outcomes.size()));
  obs::MetricsRegistry::Global()
      .GetGauge("poisonrec_fleet_last_run_wall_seconds")
      ->Set(result.wall_seconds);

  if (!options_.report_json_path.empty()) {
    const Status report = WriteJsonReport(result);
    if (!report.ok()) result.status = report;
  }
  if (!options_.report_csv_path.empty()) {
    const Status report = WriteCsvReport(result);
    if (!report.ok()) result.status = report;
  }
  journal_.Close();
  return result;
}

}  // namespace poisonrec::orch
