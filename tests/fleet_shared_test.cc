// Cross-process shared-fleet tests: two fleet workers cooperate on one
// plan over a shared journal/checkpoint/lease directory.
//
//   1. SIGKILL takeover: a forked worker is killed mid-campaign; the
//      surviving worker seizes its expired lease, resumes from the
//      token-suffixed checkpoint, and the merged per-step rewards are
//      bit-identical to a single uninterrupted fleet.
//   2. Zombie fencing: a worker is SIGSTOPped (not killed) while holding
//      a lease; a sibling seizes the campaign with an incremented
//      fencing token; SIGCONT revives the zombie, whose late writes are
//      rejected by lease validation — it observes it was fenced and
//      exits cleanly, and the merged journal is uncorrupted.
//
// POSIX-only by construction (fork/kill/waitpid); gated like
// fleet_recovery_test.cc.
#if defined(__unix__) || defined(__APPLE__)

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

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

/// Campaigns sized like fleet_recovery_test.cc: a few milliseconds per
/// step, enough steps that signals land mid-campaign.
FleetPlan SharedPlan(std::size_t campaigns) {
  FleetPlan plan;
  plan.name = "shared-fleet";
  for (std::size_t i = 0; i < campaigns; ++i) {
    CampaignSpec spec;
    spec.id = "shard" + std::to_string(i);
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

FleetOptions SharedOptions(const std::string& dir,
                           const std::string& worker_id) {
  FleetOptions options;
  options.journal_path = dir + "/journal.jsonl";
  options.checkpoint_dir = dir + "/ckpts";
  options.report_json_path = dir + "/report." + worker_id + ".json";
  options.report_csv_path = "";
  // Fork safety: exactly one campaign at a time per worker.
  options.max_concurrent = 1;
  options.worker_id = worker_id;
  options.lease_ttl_seconds = 0.5;
  return options;
}

FleetOptions ReferenceOptions(const std::string& dir) {
  FleetOptions options;
  options.journal_path = dir + "/journal.jsonl";
  options.checkpoint_dir = dir + "/ckpts";
  options.report_json_path = dir + "/report.json";
  options.report_csv_path = "";
  options.max_concurrent = 1;
  return options;
}

/// Total committed steps across the whole journal family (base file plus
/// every per-worker sibling).
std::uint64_t CommittedSteps(const std::string& journal_base) {
  const std::vector<std::string> files =
      FleetJournal::ListJournalFiles(journal_base);
  if (files.empty()) return 0;
  auto replay = FleetJournal::Replay(files);
  if (!replay.ok()) return 0;
  std::uint64_t total = 0;
  for (const auto& [id, entry] : replay->campaigns) {
    total += entry.steps_completed;
  }
  return total;
}

void ExpectBitIdentical(const FleetResult& reference,
                        const FleetResult& merged) {
  ASSERT_EQ(reference.outcomes.size(), merged.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    const CampaignOutcome& ref = reference.outcomes[i];
    const CampaignOutcome& got = merged.outcomes[i];
    EXPECT_EQ(ref.id, got.id);
    EXPECT_EQ(got.steps_completed, ref.steps_completed) << ref.id;
    ASSERT_EQ(ref.step_rewards.size(), got.step_rewards.size()) << ref.id;
    for (const auto& [step, reward] : ref.step_rewards) {
      ASSERT_TRUE(got.step_rewards.count(step))
          << ref.id << " lost step " << step;
      EXPECT_DOUBLE_EQ(reward, got.step_rewards.at(step))
          << ref.id << " step " << step;
    }
    EXPECT_DOUBLE_EQ(ref.best_reward, got.best_reward) << ref.id;
  }
}

TEST(FleetSharedTest, SigkilledWorkerIsSeizedBySiblingBitIdentically) {
  const auto base =
      std::filesystem::temp_directory_path() / "poisonrec_shared_sigkill";
  std::filesystem::remove_all(base);
  const std::string ref_dir = (base / "reference").string();
  const std::string shared_dir = (base / "shared").string();
  std::filesystem::create_directories(ref_dir);
  std::filesystem::create_directories(shared_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = SharedPlan(3);

  // Reference: one worker, never interrupted.
  FleetOrchestrator reference(plan, &log, ReferenceOptions(ref_dir));
  const FleetResult ref_result = reference.Run();
  ASSERT_EQ(ref_result.ExitCode(), 0) << ref_result.status;
  ASSERT_EQ(ref_result.done, 3u);

  // Worker A runs the shared plan in a forked child until killed.
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    FleetOrchestrator worker_a(plan, &log, SharedOptions(shared_dir, "wA"));
    worker_a.Run();
    _exit(0);
  }

  // Kill A once it has durably finished shard0 and is mid-shard1 (12 =
  // 10 + 2 under max_concurrent=1).
  const std::string journal_base = shared_dir + "/journal.jsonl";
  bool progressed = false;
  for (int i = 0; i < 2000; ++i) {
    if (CommittedSteps(journal_base) >= 12) {
      progressed = true;
      break;
    }
    int probe_status = 0;
    if (waitpid(child, &probe_status, WNOHANG) == child) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(child, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(progressed) << "worker A never committed 12 steps; committed="
                          << CommittedSteps(journal_base);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "worker A finished before SIGKILL - grow the plan";
  ASSERT_LT(CommittedSteps(journal_base), 30u)
      << "fleet finished before the kill";

  // Worker B joins the same shared directories. A's lease stops being
  // renewed, expires, and B seizes the campaign with an incremented
  // fencing token, resuming from A's token-suffixed checkpoint.
  FleetResult b_result;
  int exit_code = -1;
  for (int round = 0; round < 3 && exit_code != 0; ++round) {
    FleetOrchestrator worker_b(plan, &log, SharedOptions(shared_dir, "wB"));
    b_result = worker_b.Run();
    ASSERT_TRUE(b_result.status.ok()) << b_result.status;
    exit_code = b_result.ExitCode();
  }
  ASSERT_EQ(exit_code, 0);
  EXPECT_EQ(b_result.done, 3u);
  // shard0 finished by A before the kill: recovered from the merged
  // journals, not re-run.
  EXPECT_GE(b_result.recovered, 1u);
  // Both workers' journal files were merged into the final report.
  EXPECT_GE(b_result.journal.files_merged, 2u);

  ExpectBitIdentical(ref_result, b_result);
  std::filesystem::remove_all(base);
}

TEST(FleetSharedTest, SigstoppedZombieIsFencedAndItsLateWritesRejected) {
  const auto base =
      std::filesystem::temp_directory_path() / "poisonrec_shared_zombie";
  std::filesystem::remove_all(base);
  const std::string ref_dir = (base / "reference").string();
  const std::string shared_dir = (base / "shared").string();
  std::filesystem::create_directories(ref_dir);
  std::filesystem::create_directories(shared_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = SharedPlan(1);

  FleetOrchestrator reference(plan, &log, ReferenceOptions(ref_dir));
  const FleetResult ref_result = reference.Run();
  ASSERT_EQ(ref_result.ExitCode(), 0) << ref_result.status;

  // Worker A (the future zombie). Its exit code encodes the child-side
  // assertions: 41 = never observed being fenced, otherwise the fleet
  // exit code (0 once the sibling's terminal states are merged in).
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    FleetOrchestrator worker_a(plan, &log, SharedOptions(shared_dir, "wA"));
    const FleetResult result = worker_a.Run();
    if (result.fenced == 0) _exit(41);
    _exit(result.ExitCode());
  }

  // Stop (not kill) A once it holds the lease mid-campaign.
  const std::string journal_base = shared_dir + "/journal.jsonl";
  bool progressed = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t committed = CommittedSteps(journal_base);
    if (committed >= 2) {
      progressed = true;
      break;
    }
    int probe_status = 0;
    if (waitpid(child, &probe_status, WNOHANG) == child) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(child, SIGSTOP);
  ASSERT_TRUE(progressed) << "worker A never committed 2 steps";
  ASSERT_LT(CommittedSteps(journal_base), 10u)
      << "worker A finished before SIGSTOP - grow the campaign";

  // Worker B: A's heartbeats have stopped, so the lease expires and B
  // seizes shard0 with token+1, resumes from A's checkpoint frontier,
  // and finishes the plan.
  FleetOrchestrator worker_b(plan, &log, SharedOptions(shared_dir, "wB"));
  const FleetResult b_result = worker_b.Run();
  ASSERT_TRUE(b_result.status.ok()) << b_result.status;
  ASSERT_EQ(b_result.ExitCode(), 0);
  ASSERT_EQ(b_result.done, 1u);

  // Revive the zombie. Its next lease validation (step commit or
  // heartbeat renewal) fails the fencing check: it must stop writing,
  // count itself fenced, and still exit 0 because the campaign is
  // terminal in the merged journals.
  kill(child, SIGCONT);
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_NE(WEXITSTATUS(wait_status), 41)
      << "zombie worker never observed being fenced";
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);

  // The zombie's late writes were rejected: the merged journal family
  // replays to exactly the reference rewards, campaign done.
  auto merged = FleetJournal::Replay(FleetJournal::ListJournalFiles(
      journal_base));
  ASSERT_TRUE(merged.ok()) << merged.status();
  const CampaignReplay& shard0 = merged->campaigns.at("shard0");
  EXPECT_EQ(shard0.state, CampaignState::kDone);
  EXPECT_EQ(shard0.steps_completed, 10u);
  // The winning epoch is the seizure token, strictly above A's.
  EXPECT_GE(shard0.token, 2u);
  ASSERT_EQ(ref_result.outcomes.size(), 1u);
  const CampaignOutcome& ref = ref_result.outcomes[0];
  ASSERT_EQ(shard0.step_rewards.size(), ref.step_rewards.size());
  for (const auto& [step, reward] : ref.step_rewards) {
    ASSERT_TRUE(shard0.step_rewards.count(step)) << "lost step " << step;
    EXPECT_DOUBLE_EQ(reward, shard0.step_rewards.at(step))
        << "step " << step;
  }
  EXPECT_DOUBLE_EQ(ref.best_reward, shard0.best_reward);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace poisonrec::orch

#else
#include <gtest/gtest.h>
TEST(FleetSharedTest, SkippedOnNonPosixPlatforms) { GTEST_SKIP(); }
#endif  // __unix__ || __APPLE__
