#include "orch/supervisor.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "defense/detector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rec/registry.h"
#include "util/logging.h"

namespace poisonrec::orch {

namespace {

obs::Counter* FleetCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

std::optional<CheckpointName> ParseCheckpointName(
    const std::string& filename) {
  constexpr std::string_view kSuffix = ".ckpt";
  if (filename.size() < kSuffix.size() ||
      filename.compare(filename.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) != 0) {
    return std::nullopt;
  }
  CheckpointName name;
  name.campaign_id = filename.substr(0, filename.size() - kSuffix.size());
  const std::size_t dot = name.campaign_id.rfind(".t");
  if (dot == std::string::npos || dot + 2 == name.campaign_id.size()) {
    return name;
  }
  std::uint64_t token = 0;
  for (std::size_t i = dot + 2; i < name.campaign_id.size(); ++i) {
    const char c = name.campaign_id[i];
    if (c < '0' || c > '9') return name;
    token = token * 10 + static_cast<std::uint64_t>(c - '0');
  }
  name.campaign_id.resize(dot);
  name.token = token;
  return name;
}

std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& dir, const std::string& id) {
  std::vector<std::pair<std::uint64_t, std::string>> checkpoints;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string filename = it->path().filename().string();
    const std::optional<CheckpointName> name = ParseCheckpointName(filename);
    if (!name.has_value()) continue;
    if (name->campaign_id == id) {
      checkpoints.emplace_back(name->token, it->path().string());
    } else if (filename == id + ".ckpt") {
      checkpoints.emplace_back(0, it->path().string());
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return checkpoints;
}

std::string QuarantineDir(const std::string& checkpoint_dir) {
  return (std::filesystem::path(checkpoint_dir) / "corrupt").string();
}

CampaignSupervisor::CampaignSupervisor(const CampaignSpec& spec,
                                       const data::Dataset* dataset,
                                       SupervisorOptions options)
    : spec_(spec), dataset_(dataset), options_(std::move(options)) {
  POISONREC_CHECK(dataset_ != nullptr);
  POISONREC_CHECK(options_.leases != nullptr)
      << "campaign " << spec_.id << " needs a lease manager";
}

std::string CampaignSupervisor::CheckpointPath() const {
  // Each ownership epoch publishes to its own file, so a fenced-out
  // zombie's in-flight save lands in a file the new owner (holding a
  // strictly higher token) never reads.
  return (std::filesystem::path(options_.checkpoint_dir) /
          (spec_.id + ".t" + std::to_string(options_.lease_token) + ".ckpt"))
      .string();
}

std::vector<std::string> CampaignSupervisor::FindResumeCheckpoints() const {
  // Every epoch at or below our token, newest first: normally the
  // previous owner's frontier right after a seizure, or our own file
  // after a restart, with older epochs behind it as fallbacks should
  // the frontier turn out torn or rotted. Files above our token would
  // mean we are the zombie; they are ignored here and the lease
  // validation at the next commit fences us out.
  std::vector<std::string> paths;
  for (auto& [token, path] :
       ListCheckpoints(options_.checkpoint_dir, spec_.id)) {
    if (token <= options_.lease_token) paths.push_back(std::move(path));
  }
  return paths;
}

std::string CampaignSupervisor::QuarantineCheckpoint(
    const std::string& path) const {
  const std::filesystem::path source(path);
  const std::filesystem::path dir(QuarantineDir(options_.checkpoint_dir));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path dest = dir / source.filename();
  if (!ec) {
    std::filesystem::rename(source, dest, ec);
    if (!ec) return dest.string();
  }
  // A quarantine that cannot move the file must still get it out of
  // the resume path — a damaged checkpoint that keeps being retried
  // would wedge the campaign.
  std::filesystem::remove(source, ec);
  return std::string();
}

void CampaignSupervisor::Journal(CampaignState state, std::uint64_t step,
                                 double reward, double best_reward,
                                 std::uint64_t restarts,
                                 const std::string& detail) {
  if (options_.journal == nullptr) return;
  // Fencing check on the write path: once a sibling holds a higher
  // token, appending would be a stale write — replay would drop it
  // anyway (token-aware fold), but not writing at all keeps the journal
  // clean and stops this worker within one step boundary.
  const Status valid =
      options_.leases->Validate(spec_.id, options_.lease_token);
  if (!valid.ok()) {
    RequestSoftStop(SoftStopKind::kFenced);
    POISONREC_LOG(Warning) << "campaign " << spec_.id
                           << ": journal write suppressed: "
                           << valid.message();
    return;
  }
  CampaignJournalRecord record;
  record.campaign_id = spec_.id;
  record.state = state;
  record.step = step;
  record.reward = reward;
  record.best_reward = best_reward;
  record.restarts = restarts;
  record.token = options_.lease_token;
  record.owner = options_.leases->owner_id();
  record.detail = detail;
  options_.journal->Record(record);
}

void CampaignSupervisor::Abort(const std::string& reason,
                               bool allow_restart) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    abort_reason_ = reason;
  }
  abort_allow_restart_.store(allow_restart, std::memory_order_release);
  cancel_.Cancel();
}

bool CampaignSupervisor::RequestSoftStop(SoftStopKind kind) {
  int expected = static_cast<int>(SoftStopKind::kNone);
  const bool won = soft_stop_kind_.compare_exchange_strong(
      expected, static_cast<int>(kind), std::memory_order_acq_rel);
  if (kind == SoftStopKind::kFenced) {
    // Fencing overrides whatever stop was pending: a fenced worker must
    // not write even the checkpoint of its in-flight step, so the hard
    // cancel token fires too (the step is discarded, which is correct —
    // the seizing owner recomputes it deterministically).
    soft_stop_kind_.store(static_cast<int>(kind), std::memory_order_release);
    soft_stop_.store(true, std::memory_order_release);
    cancel_.Cancel();
    return true;
  }
  if (won) soft_stop_.store(true, std::memory_order_release);
  return won;
}

std::string CampaignSupervisor::TakeAbortReason() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string reason = abort_reason_.empty() ? "cancelled" : abort_reason_;
  abort_reason_.clear();
  return reason;
}

double CampaignSupervisor::SecondsSinceHeartbeat() const {
  const std::uint64_t ticks =
      heartbeat_ticks_.load(std::memory_order_acquire);
  if (ticks == 0) return 0.0;
  return internal::ElapsedSecondsSince(ticks);
}

double CampaignSupervisor::SecondsSinceStart() const {
  const std::uint64_t ticks = start_ticks_.load(std::memory_order_acquire);
  if (ticks == 0) return 0.0;
  return internal::ElapsedSecondsSince(ticks);
}

double CampaignSupervisor::CommittedStepRate() const {
  const std::uint64_t committed =
      committed_steps_.load(std::memory_order_acquire);
  const std::uint64_t base = run_start_steps_.load(std::memory_order_acquire);
  if (committed <= base) return 0.0;
  const double elapsed = SecondsSinceStart();
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(committed - base) / elapsed;
}

void CampaignSupervisor::SleepForRestart(double seconds) {
  if (options_.restart_sleep) {
    options_.restart_sleep(seconds);
    return;
  }
  // Real sleep in small slices so a fleet shutdown request does not
  // have to wait out the whole backoff.
  double remaining = seconds;
  while (remaining > 0.0) {
    if (FleetStopRaised() || soft_stop_.load(std::memory_order_acquire)) {
      return;
    }
    const double slice = std::min(remaining, 0.02);
    std::this_thread::sleep_for(std::chrono::duration<double>(slice));
    remaining -= slice;
  }
}

Status CampaignSupervisor::RunAttempt(CampaignOutcome* outcome) {
  // A fresh environment stack per attempt: whatever state the previous
  // attempt corrupted is discarded wholesale. Determinism across
  // attempts comes from the checkpoint (policy, RNG, pool, defender
  // state) plus the derived per-episode and per-query streams.
  obs::TraceSpan attempt_span("campaign/attempt", spec_.id.c_str());
  heartbeat_ticks_.store(internal::NowTicks(), std::memory_order_release);
  rec::FitConfig fit;
  fit.embedding_dim = spec_.embedding_dim;
  fit.seed = spec_.seed ^ 0x5u;
  auto ranker = rec::MakeRecommender(spec_.ranker, fit);
  if (!ranker.ok()) return ranker.status();
  env::AttackEnvironment environment(*dataset_, std::move(ranker).value(),
                                     MakeEnvironmentConfig(spec_));

  // The fault layer is always there (a zero profile is the clean
  // platform); the defender wraps it when the spec asks for one.
  env::FaultyEnvironment faulty(&environment, spec_.fault);
  std::unique_ptr<env::DefendedEnvironment> defended;
  if (spec_.defense) {
    auto detector = defense::MakeDetector(spec_.detector);
    if (!detector.ok()) return detector.status();
    defended = std::make_unique<env::DefendedEnvironment>(
        &faulty, std::move(detector).value(), spec_.defense_profile);
  }

  core::PoisonRecAttacker attacker(&environment, MakeAttackerConfig(spec_));
  const env::RewardSource* platform = &faulty;
  if (defended != nullptr) platform = defended.get();
  attacker.AttachPlatform(platform, defended.get(), options_.retry_sleep);
  // The attacker watches the supervisor's own soft-stop flag (raised by
  // shutdown, preemption, or fencing); the fleet-wide stop is mirrored
  // in from the heartbeat hook, which fires at every step entry and
  // phase boundary.
  attacker.SetStopFlag(&soft_stop_);
  attacker.SetCancelToken(&cancel_);
  attacker.SetHeartbeat([this] {
    heartbeat_ticks_.store(internal::NowTicks(), std::memory_order_release);
    if (FleetStopRaised()) RequestSoftStop(SoftStopKind::kShutdown);
  });
  static obs::Counter* const steps_committed =
      FleetCounter("poisonrec_fleet_steps_committed_total");
  attacker.SetStepCommittedCallback(
      [this, outcome](const core::TrainStepStats& stats) {
        const Status valid =
            options_.leases->Validate(spec_.id, options_.lease_token);
        if (!valid.ok()) {
          // Zombie write rejected: the checkpoint went to our stale
          // token-suffixed file (harmless), and neither the outcome nor
          // the journal records the step.
          RequestSoftStop(SoftStopKind::kFenced);
          POISONREC_LOG(Warning) << "campaign " << spec_.id
                                 << ": step commit rejected: "
                                 << valid.message();
          return;
        }
        outcome->step_rewards[stats.step] = stats.mean_reward;
        outcome->steps_completed = stats.step;
        outcome->best_reward =
            std::max(outcome->best_reward, stats.best_reward_so_far);
        committed_steps_.store(stats.step, std::memory_order_release);
        last_reward_.store(stats.mean_reward, std::memory_order_release);
        best_reward_live_.store(outcome->best_reward,
                                std::memory_order_release);
        steps_committed->Increment();
        Journal(CampaignState::kCheckpointed, stats.step, stats.mean_reward,
                stats.best_reward_so_far, outcome->restarts, "");
      });

  const std::string checkpoint = CheckpointPath();
  static obs::Counter* const checkpoints_quarantined_total =
      FleetCounter("poisonrec_fleet_checkpoints_quarantined_total");
  for (const std::string& resume_from : FindResumeCheckpoints()) {
    // With a journal record of the campaign, the journal says which
    // steps are committed. A checkpoint past them holds a step whose
    // reward was never journaled: its owner died between publishing the
    // checkpoint and journaling the step. Resuming from it would skip
    // that step for good; an older checkpoint, or the replay from
    // scratch, runs it again with the same deterministic result.
    const StatusOr<std::uint64_t> steps = core::CheckpointSteps(resume_from);
    if (options_.replay.has_value() && steps.ok() &&
        *steps > outcome->steps_completed) {
      POISONREC_LOG(Warning)
          << "campaign " << spec_.id << ": not resuming from "
          << resume_from << ": it holds step " << *steps << ", past the "
          << outcome->steps_completed << " the journal committed";
      continue;
    }
    const Status loaded = attacker.LoadCheckpoint(resume_from);
    if (loaded.ok()) {
      heartbeat_ticks_.store(internal::NowTicks(),
                             std::memory_order_release);
      break;
    }
    if (loaded.code() == StatusCode::kDataLoss ||
        loaded.code() == StatusCode::kInvalidArgument) {
      // A torn, rotted, or incompatible checkpoint is lost state, not
      // a fatal error: quarantine it under <ckpt-dir>/corrupt/ (so
      // fsck can report it and it never gets retried) and fall back to
      // the next-older candidate — one flipped bit costs a restart
      // from the previous epoch, not the campaign. With no candidate
      // left the loop ends and the campaign replays from scratch (the
      // deterministic streams reproduce the same steps).
      const std::string moved = QuarantineCheckpoint(resume_from);
      ++outcome->checkpoints_quarantined;
      checkpoints_quarantined_total->Increment();
      POISONREC_LOG(Warning)
          << "campaign " << spec_.id << ": quarantining checkpoint "
          << resume_from << (moved.empty() ? " (removed)" : " -> " + moved)
          << ": " << loaded.ToString();
      Journal(CampaignState::kRunning, 0, 0.0, outcome->best_reward,
              outcome->restarts,
              "checkpoint quarantined: " + loaded.ToString());
      continue;
    }
    return loaded;
  }
  if (attacker.steps_taken() >= spec_.steps) {
    outcome->steps_completed = attacker.steps_taken();
    outcome->best_reward =
        std::max(outcome->best_reward, attacker.best_episode().reward);
    return Status::OK();
  }

  core::GuardedTrainResult result =
      attacker.TrainGuarded(spec_.steps - attacker.steps_taken(), checkpoint);
  outcome->rollbacks += result.rollbacks;
  outcome->best_reward =
      std::max(outcome->best_reward, attacker.best_episode().reward);
  return result.status;
}

CampaignOutcome CampaignSupervisor::Run() {
  CampaignOutcome outcome;
  const std::uint64_t run_start = internal::NowTicks();
  start_ticks_.store(run_start, std::memory_order_release);
  heartbeat_ticks_.store(run_start, std::memory_order_release);

  // Journal recovery: terminal campaigns are never re-run; unfinished
  // ones inherit their committed rewards and restart count. Every exit
  // below sets the state and detail, and our records carry our token.
  if (options_.replay.has_value()) {
    const CampaignReplay& replay = *options_.replay;
    static_cast<CampaignReplay&>(outcome) = replay;
    committed_steps_.store(replay.steps_completed,
                           std::memory_order_release);
    run_start_steps_.store(replay.steps_completed,
                           std::memory_order_release);
    best_reward_live_.store(replay.best_reward, std::memory_order_release);
    if (!replay.step_rewards.empty()) {
      last_reward_.store(replay.step_rewards.rbegin()->second,
                         std::memory_order_release);
    }
  }
  outcome.id = spec_.id;
  outcome.token = options_.lease_token;
  outcome.preemptions = options_.preemptions;
  if (IsTerminal(outcome.state)) {
    if (outcome.detail.empty()) outcome.detail = "recovered from journal";
    outcome.recovered_from_journal = true;
    return outcome;
  }
  if (FleetStopRaised()) {
    outcome.state = outcome.steps_completed > 0
                        ? CampaignState::kCheckpointed
                        : CampaignState::kPending;
    outcome.interrupted = true;
    outcome.detail = "not started: fleet shutdown requested";
    return outcome;
  }

  static obs::Counter* const campaigns_total =
      FleetCounter("poisonrec_fleet_campaigns_total");
  static obs::Counter* const restarts_total =
      FleetCounter("poisonrec_fleet_restarts_total");
  static obs::Counter* const quarantined_total =
      FleetCounter("poisonrec_fleet_quarantined_total");
  static obs::Counter* const interrupted_total =
      FleetCounter("poisonrec_fleet_interrupted_total");
  static obs::Counter* const preemptions_total =
      FleetCounter("poisonrec_fleet_preemptions_total");
  campaigns_total->Increment();

  running_.store(true, std::memory_order_release);
  Journal(CampaignState::kRunning, outcome.steps_completed, 0.0,
          outcome.best_reward, outcome.restarts,
          outcome.steps_completed > 0 ? "resumed from checkpoint" : "");

  // Restart delays follow the same decorrelated-jitter schedule as query
  // retries, seeded per campaign so fleets do not restart in lockstep.
  RetryPolicy restart_policy;
  restart_policy.initial_backoff_seconds = spec_.restart_backoff_seconds;
  restart_policy.max_backoff_seconds =
      std::max(1.0, 8.0 * spec_.restart_backoff_seconds);
  RetryBackoff restart_backoff(restart_policy,
                               spec_.seed ^ 0x9e3779b97f4a7c15ull);

  const auto reward_at = [&outcome](std::uint64_t step) {
    const auto it = outcome.step_rewards.find(step);
    return it == outcome.step_rewards.end() ? 0.0 : it->second;
  };
  const auto finish = [&](CampaignState state, const std::string& detail) {
    outcome.state = state;
    outcome.detail = detail;
    Journal(state, outcome.steps_completed,
            reward_at(outcome.steps_completed), outcome.best_reward,
            outcome.restarts, detail);
    running_.store(false, std::memory_order_release);
    outcome.wall_seconds = internal::ElapsedSecondsSince(run_start);
  };

  for (std::size_t attempt = 0;; ++attempt) {
    const Status status = RunAttempt(&outcome);
    const auto stop_kind = static_cast<SoftStopKind>(
        soft_stop_kind_.load(std::memory_order_acquire));
    if (stop_kind == SoftStopKind::kFenced) {
      // The lease moved to a sibling: this worker's view is no longer
      // authoritative and journaling anything would be a stale write.
      // The new owner re-runs the campaign from the seized checkpoint.
      outcome.fenced = true;
      outcome.state = CampaignState::kRunning;
      outcome.detail = "fenced: campaign lease seized by a sibling worker";
      running_.store(false, std::memory_order_release);
      outcome.wall_seconds = internal::ElapsedSecondsSince(run_start);
      return outcome;
    }
    if (status.ok()) {
      finish(CampaignState::kDone, "");
      return outcome;
    }
    if (status.code() == StatusCode::kCancelled &&
        (FleetStopRaised() || stop_kind == SoftStopKind::kShutdown)) {
      // Graceful shutdown: the last clean step is already checkpointed
      // and journaled; rerunning the fleet picks the campaign back up.
      outcome.interrupted = true;
      interrupted_total->Increment();
      finish(CampaignState::kCheckpointed,
             "interrupted: fleet shutdown (" + status.message() + ")");
      return outcome;
    }
    if (status.code() == StatusCode::kCancelled &&
        stop_kind == SoftStopKind::kPreempt) {
      // Soft-stopped at the step boundary for a higher-priority
      // campaign; the scheduler re-queues this one from its checkpoint.
      ++outcome.preemptions;
      preemptions_total->Increment();
      finish(CampaignState::kPreempted,
             "preempted for a higher-priority campaign (" +
                 std::to_string(outcome.preemptions) + "/" +
                 std::to_string(spec_.max_preemptions) + ")");
      return outcome;
    }

    std::string reason;
    bool restartable;
    if (status.code() == StatusCode::kCancelled) {
      // Watchdog abort (stall or deadline).
      reason = TakeAbortReason();
      restartable = abort_allow_restart_.load(std::memory_order_acquire);
      cancel_.Reset();
    } else if (status.code() == StatusCode::kResourceExhausted ||
               status.code() == StatusCode::kFailedPrecondition) {
      // Deterministic persistent failures: the pool drained or the
      // rollback budget was spent, and a restart replays the exact same
      // ban/anomaly stream. The circuit breaker quarantines instead of
      // burning restarts on a lost cause.
      reason = status.ToString();
      restartable = false;
    } else if (status.code() == StatusCode::kIoError ||
               status.code() == StatusCode::kUnavailable) {
      // Transient storage and environment faults — a momentary EIO or
      // ENOSPC from a checkpoint publish, an NFS blip, a throttled
      // black-box — usually clear on their own. Explicitly retriable
      // within the bounded restart budget rather than quarantined: the
      // write path already guarantees a failed publish never replaces
      // the previous durable checkpoint, so the retry resumes cleanly.
      reason = status.ToString();
      restartable = true;
    } else {
      // Unexpected errors: possibly transient, restart-worthy.
      reason = status.ToString();
      restartable = true;
    }

    if (!restartable) {
      quarantined_total->Increment();
      finish(CampaignState::kQuarantined, reason);
      return outcome;
    }
    if (attempt >= spec_.max_restarts) {
      if (status.code() == StatusCode::kCancelled) {
        quarantined_total->Increment();
        finish(CampaignState::kQuarantined,
               "restart budget exhausted (" +
                   std::to_string(spec_.max_restarts) + "); last abort: " +
                   reason);
      } else {
        finish(CampaignState::kFailed,
               "restart budget exhausted (" +
                   std::to_string(spec_.max_restarts) +
                   "); last error: " + reason);
      }
      return outcome;
    }

    ++outcome.restarts;
    restarts_total->Increment();
    POISONREC_LOG(Warning) << "campaign " << spec_.id << ": restart "
                           << outcome.restarts << "/" << spec_.max_restarts
                           << " after: " << reason;
    Journal(CampaignState::kRunning, outcome.steps_completed, 0.0,
            outcome.best_reward, outcome.restarts,
            "restart " + std::to_string(outcome.restarts) + ": " + reason);
    SleepForRestart(restart_backoff.NextDelaySeconds());
    if (FleetStopRaised() ||
        soft_stop_.load(std::memory_order_acquire)) {
      const auto kind_now = static_cast<SoftStopKind>(
          soft_stop_kind_.load(std::memory_order_acquire));
      if (kind_now == SoftStopKind::kFenced) {
        outcome.fenced = true;
        outcome.state = CampaignState::kRunning;
        outcome.detail = "fenced during restart backoff";
        running_.store(false, std::memory_order_release);
        outcome.wall_seconds = internal::ElapsedSecondsSince(run_start);
        return outcome;
      }
      if (kind_now == SoftStopKind::kPreempt) {
        ++outcome.preemptions;
        preemptions_total->Increment();
        finish(CampaignState::kPreempted,
               "preempted during restart backoff");
        return outcome;
      }
      outcome.interrupted = true;
      interrupted_total->Increment();
      finish(CampaignState::kCheckpointed,
             "interrupted during restart backoff");
      return outcome;
    }
  }
}

}  // namespace poisonrec::orch
