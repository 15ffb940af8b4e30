// Cross-process acceptance test for the fleet status surface: two
// fleet workers run one plan while the parent process queries
// CollectFleetStatus read-only from the side, like `poisonrec fleet
// --status` would.
//
//   1. Mid-run the status names both workers (live) and every campaign
//      with a coherent state/owner/token/step, and exits 0.
//   2. After SIGKILL of one worker — before its lease expires — the
//      status classifies it stale (dead pid under a non-shutdown
//      snapshot) and exits 2, while the survivor finishes the plan.
//
// POSIX-only by construction (fork/kill/waitpid); gated like
// fleet_shared_test.cc.
#if defined(__unix__) || defined(__APPLE__)

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "orch/fleet.h"
#include "orch/journal.h"
#include "orch/spec.h"
#include "orch/status.h"

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

FleetPlan StatusPlan(std::size_t campaigns) {
  FleetPlan plan;
  plan.name = "status-fleet";
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

FleetOptions WorkerOptions(const std::string& dir,
                           const std::string& worker_id) {
  FleetOptions options;
  options.journal_path = dir + "/journal.jsonl";
  options.checkpoint_dir = dir + "/ckpts";
  options.report_json_path = dir + "/report." + worker_id + ".json";
  options.report_csv_path = "";
  options.max_concurrent = 1;
  options.worker_id = worker_id;
  // Generous ttl so the mid-run query never races a lease expiry; the
  // kill is detected through the pid probe, not heartbeat age.
  options.lease_ttl_seconds = 2.0;
  options.status_publish_seconds = 0.05;
  return options;
}

FleetStatusOptions QueryOptions(const std::string& dir) {
  FleetStatusOptions options;
  options.journal_path = dir + "/journal.jsonl";
  options.checkpoint_dir = dir + "/ckpts";
  return options;
}

const WorkerStatusRow* FindWorker(const FleetStatus& status,
                                  const std::string& id) {
  for (const WorkerStatusRow& row : status.workers) {
    if (row.worker_id == id) return &row;
  }
  return nullptr;
}

const CampaignStatusRow* FindCampaign(const FleetStatus& status,
                                      const std::string& id) {
  for (const CampaignStatusRow& row : status.campaigns) {
    if (row.id == id) return &row;
  }
  return nullptr;
}

bool HasReasonContaining(const FleetStatus& status,
                         const std::string& needle) {
  for (const std::string& reason : status.degraded_reasons) {
    if (reason.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(FleetStatusTest, TwoWorkerFleetIsQueryableMidRunAndAfterSigkill) {
  const auto base =
      std::filesystem::temp_directory_path() / "poisonrec_fleet_status";
  std::filesystem::remove_all(base);
  const std::string dir = base.string();
  std::filesystem::create_directories(dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = StatusPlan(3);

  const pid_t worker_a = fork();
  ASSERT_GE(worker_a, 0) << "fork failed";
  if (worker_a == 0) {
    FleetOrchestrator worker(plan, &log, WorkerOptions(dir, "wA"));
    _exit(worker.Run().ExitCode());
  }
  const pid_t worker_b = fork();
  ASSERT_GE(worker_b, 0) << "fork failed";
  if (worker_b == 0) {
    FleetOrchestrator worker(plan, &log, WorkerOptions(dir, "wB"));
    _exit(worker.Run().ExitCode());
  }

  // -- 1. Mid-run: both workers live, every campaign named, exit 0 ----------
  const FleetStatusOptions query = QueryOptions(dir);
  FleetStatus mid;
  bool observed = false;
  for (int i = 0; i < 4000 && !observed; ++i) {
    mid = CollectFleetStatus(query);
    observed = mid.workers.size() == 2 && mid.workers_live == 2 &&
               mid.ExitCode() == 0 &&
               mid.campaigns.size() == plan.campaigns.size();
    if (observed) break;
    int probe = 0;
    ASSERT_NE(waitpid(worker_a, &probe, WNOHANG), worker_a)
        << "worker A exited before the mid-run query - grow the plan";
    ASSERT_NE(waitpid(worker_b, &probe, WNOHANG), worker_b)
        << "worker B exited before the mid-run query - grow the plan";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(observed) << "never observed 2 live workers + "
                        << plan.campaigns.size() << " campaigns; last: "
                        << FormatFleetStatusTable(mid);
  ASSERT_NE(FindWorker(mid, "wA"), nullptr);
  ASSERT_NE(FindWorker(mid, "wB"), nullptr);
  EXPECT_EQ(FindWorker(mid, "wA")->health, WorkerHealth::kLive);
  EXPECT_EQ(FindWorker(mid, "wB")->health, WorkerHealth::kLive);
  for (const CampaignSpec& spec : plan.campaigns) {
    const CampaignStatusRow* row = FindCampaign(mid, spec.id);
    ASSERT_NE(row, nullptr) << spec.id;
    EXPECT_LE(row->step, spec.steps) << spec.id;
    if (row->total > 0) {
      EXPECT_EQ(row->total, spec.steps) << spec.id;
    }
    if (row->running) {
      EXPECT_TRUE(row->owner == "wA" || row->owner == "wB")
          << spec.id << " owned by " << row->owner;
      EXPECT_GE(row->token, 1u) << spec.id;
    }
    if (row->lease_held) {
      EXPECT_FALSE(row->owner.empty()) << spec.id;
    }
    EXPECT_FALSE(row->stalled) << spec.id;
  }

  // -- 2. SIGKILL worker A before its lease expires -------------------------
  kill(worker_a, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(waitpid(worker_a, &wait_status, 0), worker_a);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "worker A finished before SIGKILL - grow the plan";

  const FleetStatus post = CollectFleetStatus(query);
  const WorkerStatusRow* dead = FindWorker(post, "wA");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->health, WorkerHealth::kStale)
      << FormatFleetStatusTable(post);
  EXPECT_FALSE(dead->shutdown);
  EXPECT_TRUE(post.degraded());
  EXPECT_EQ(post.ExitCode(), 2);
  EXPECT_TRUE(HasReasonContaining(post, "worker wA stale"))
      << FormatFleetStatusTable(post);

  // -- 3. The survivor (plus a recovery round if B gave up while A's
  //       lease was still unexpired) drives the plan to completion ----------
  ASSERT_EQ(waitpid(worker_b, &wait_status, 0), worker_b);
  for (int round = 0; round < 3; ++round) {
    auto replay = FleetJournal::Replay(
        FleetJournal::ListJournalFiles(dir + "/journal.jsonl"));
    if (replay.ok() && replay->campaigns.size() == plan.campaigns.size()) {
      bool all_done = true;
      for (const auto& [id, entry] : replay->campaigns) {
        all_done = all_done && entry.state == CampaignState::kDone;
      }
      if (all_done) break;
    }
    FleetOrchestrator recovery(plan, &log, WorkerOptions(dir, "wC"));
    recovery.Run();
  }

  const FleetStatus final_status = CollectFleetStatus(query);
  for (const CampaignSpec& spec : plan.campaigns) {
    const CampaignStatusRow* row = FindCampaign(final_status, spec.id);
    ASSERT_NE(row, nullptr) << spec.id;
    EXPECT_EQ(row->state, CampaignState::kDone)
        << spec.id << ": " << FormatFleetStatusTable(final_status);
    EXPECT_EQ(row->step, spec.steps) << spec.id;
  }
  // wA's tombstone keeps the fleet degraded even though the work is
  // done: a dead worker that never said goodbye is worth a page.
  EXPECT_EQ(final_status.ExitCode(), 2);
  EXPECT_TRUE(HasReasonContaining(final_status, "worker wA stale"));
  const WorkerStatusRow* survivor = FindWorker(final_status, "wB");
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->health, WorkerHealth::kExited);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace poisonrec::orch

#else
#include <gtest/gtest.h>
TEST(FleetStatusTest, SkippedOnNonPosixPlatforms) { GTEST_SKIP(); }
#endif  // __unix__ || __APPLE__
