// Crash-recovery end-to-end test: a fleet run in a forked child is
// SIGKILLed mid-campaign (no destructors, no flushing beyond what the
// journal/checkpoint layers already guarantee), then rerun in the
// parent under another worker id, the way a restart without a stable
// --worker-id comes back: it waits out the dead run's lease, seizes it
// with a bumped fencing token and resumes from the dead epoch's
// checkpoint. The merged per-step rewards must be bit-identical to a
// fleet that was never killed — the whole point of the durable journal
// + fsynced checkpoints + deterministic replay streams.
//
// POSIX-only by construction (fork/kill/waitpid); the entire test body
// is gated on unistd.h availability.
#if defined(__unix__) || defined(__APPLE__)

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "orch/fleet.h"
#include "orch/journal.h"
#include "orch/spec.h"

namespace poisonrec::orch {
namespace {

data::Dataset MakeLog() {
  data::SyntheticConfig cfg;
  cfg.num_users = 150;
  cfg.num_items = 110;
  cfg.num_interactions = 1800;
  cfg.seed = 5;
  return data::GenerateSynthetic(cfg);
}

/// Campaigns sized so each step takes a few milliseconds: enough steps
/// that SIGKILL lands mid-fleet, small enough to keep the test fast.
FleetPlan RecoveryPlan() {
  FleetPlan plan;
  plan.name = "crash-recovery";
  for (std::size_t i = 0; i < 3; ++i) {
    CampaignSpec spec;
    spec.id = "victim" + std::to_string(i);
    spec.steps = 10;
    spec.samples_per_step = 4;
    spec.attackers = 8;
    spec.trajectory_length = 10;
    spec.num_target_items = 4;
    spec.embedding_dim = 8;
    spec.max_eval_users = 96;
    spec.seed = 21 + i * 17;
    plan.campaigns.push_back(std::move(spec));
  }
  return plan;
}

/// `worker_id` empty keeps the process default. The forked child would
/// inherit the parent's cached default, so the kill test names both.
FleetOptions DirOptions(const std::string& dir,
                        const std::string& worker_id = "") {
  FleetOptions options;
  options.journal_path = dir + "/journal.jsonl";
  options.checkpoint_dir = dir + "/ckpts";
  options.report_json_path = dir + "/report.json";
  options.report_csv_path = "";  // not under test here
  // Fork safety: exactly one campaign at a time, no helper threads other
  // than the watchdog.
  options.max_concurrent = 1;
  options.worker_id = worker_id;
  // Short, so the rerun seizes the dead run's lease promptly.
  options.lease_ttl_seconds = 0.5;
  return options;
}

/// Folded campaigns of the whole journal family under `base`.
std::map<std::string, CampaignReplay> ReplayFamily(const std::string& base) {
  auto replay =
      FleetJournal::Replay(FleetJournal::ListJournalFiles(base));
  if (!replay.ok()) return {};
  return std::move(replay->campaigns);
}

std::uint64_t CommittedSteps(const std::string& journal_path) {
  std::uint64_t total = 0;
  for (const auto& [id, entry] : ReplayFamily(journal_path)) {
    total += entry.steps_completed;
  }
  return total;
}

TEST(FleetRecoveryTest, Sigkill9MidFleetResumesBitIdentically) {
  const auto base =
      std::filesystem::temp_directory_path() / "poisonrec_fleet_sigkill";
  std::filesystem::remove_all(base);
  const std::string ref_dir = (base / "reference").string();
  const std::string crash_dir = (base / "crashed").string();
  std::filesystem::create_directories(ref_dir);
  std::filesystem::create_directories(crash_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = RecoveryPlan();

  // Reference: the same fleet, never interrupted.
  FleetOrchestrator reference(plan, &log, DirOptions(ref_dir));
  const FleetResult ref_result = reference.Run();
  ASSERT_EQ(ref_result.ExitCode(), 0) << ref_result.status;
  ASSERT_EQ(ref_result.done, 3u);

  // Child: run the same fleet in `crash_dir` until killed. _exit on the
  // off-chance it finishes before the parent's SIGKILL lands.
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    FleetOrchestrator victim(plan, &log, DirOptions(crash_dir, "w-killed"));
    victim.Run();
    _exit(0);
  }

  // Parent: wait until the child has durably committed past the first
  // campaign (12 = victim0's 10 steps + 2 of victim1 under
  // max_concurrent=1, so the kill lands with one campaign finished and
  // one genuinely mid-flight), then SIGKILL — no atexit, no stack
  // unwinding, no journal Close.
  const std::string crash_journal = crash_dir + "/journal.jsonl";
  bool progressed = false;
  for (int i = 0; i < 2000; ++i) {
    if (CommittedSteps(crash_journal) >= 12) {
      progressed = true;
      break;
    }
    // Bail out early if the child somehow already exited.
    int probe_status = 0;
    if (waitpid(child, &probe_status, WNOHANG) == child) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(child, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(progressed)
      << "child never committed 12 steps; committed="
      << CommittedSteps(crash_journal);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "child exited on its own before SIGKILL - grow the plan";
  const std::uint64_t committed_at_kill = CommittedSteps(crash_journal);
  ASSERT_LT(committed_at_kill, 30u) << "fleet finished before the kill";
  // Record which campaigns were already terminal when the kill landed:
  // resume must report them recovered, not re-run them. The one in
  // flight must be seized in a new fencing epoch.
  std::set<std::string> finished_at_kill;
  std::set<std::string> in_flight_at_kill;
  for (const auto& [id, entry] : ReplayFamily(crash_journal)) {
    if (entry.state == CampaignState::kDone) {
      finished_at_kill.insert(id);
    } else if (entry.steps_completed > 0) {
      in_flight_at_kill.insert(id);
    }
  }
  ASSERT_FALSE(finished_at_kill.empty())
      << "threshold guarantees victim0 finished before the kill";
  ASSERT_FALSE(in_flight_at_kill.empty())
      << "threshold guarantees victim1 was mid-flight at the kill";

  // Rerun in the parent from the torn-but-durable journal + fsynced
  // checkpoints. Loop defensively; one pass is the normal case.
  const FleetOptions resume_options = DirOptions(crash_dir, "w-restarted");
  int exit_code = -1;
  FleetResult resumed_result;
  for (int round = 0; round < 3 && exit_code != 0; ++round) {
    FleetOrchestrator resumed(plan, &log, resume_options);
    resumed_result = resumed.Run();
    ASSERT_TRUE(resumed_result.status.ok()) << resumed_result.status;
    exit_code = resumed_result.ExitCode();
  }
  ASSERT_EQ(exit_code, 0);
  ASSERT_EQ(resumed_result.done, 3u);

  // Bit-identical recovery: the merged (pre-kill + post-resume) reward
  // sequence of every campaign equals the never-killed reference.
  ASSERT_EQ(resumed_result.outcomes.size(), ref_result.outcomes.size());
  for (std::size_t i = 0; i < ref_result.outcomes.size(); ++i) {
    const CampaignOutcome& ref = ref_result.outcomes[i];
    const CampaignOutcome& rec = resumed_result.outcomes[i];
    EXPECT_EQ(ref.id, rec.id);
    EXPECT_EQ(rec.steps_completed, 10u) << rec.id;
    if (finished_at_kill.count(rec.id)) {
      EXPECT_TRUE(rec.recovered_from_journal)
          << rec.id << " finished before the kill but was re-run";
    }
    if (in_flight_at_kill.count(rec.id)) {
      EXPECT_GE(rec.token, 2u)
          << rec.id << " was not seized from the killed run's epoch";
    }
    ASSERT_EQ(ref.step_rewards.size(), rec.step_rewards.size()) << ref.id;
    for (const auto& [step, reward] : ref.step_rewards) {
      ASSERT_TRUE(rec.step_rewards.count(step))
          << ref.id << " lost step " << step;
      EXPECT_DOUBLE_EQ(reward, rec.step_rewards.at(step))
          << ref.id << " step " << step;
    }
    EXPECT_DOUBLE_EQ(ref.best_reward, rec.best_reward) << ref.id;
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace poisonrec::orch

#else
#include <gtest/gtest.h>
TEST(FleetRecoveryTest, SkippedOnNonPosixPlatforms) { GTEST_SKIP(); }
#endif  // __unix__ || __APPLE__
