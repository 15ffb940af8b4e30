// Unit tests for orch/status.h: CollectFleetStatus folds fabricated
// journal / lease / snapshot state through the test seams (injected
// clock + pid probe), and classifies damaged inputs into hygiene
// counters instead of crashing:
//
//   * torn trailing snapshot (publish interrupted before the footer),
//   * CRC-mismatched snapshot (bit rot under an intact footer),
//   * framed-but-foreign snapshot (not a worker_status document),
//   * expired lease over a live journal (stalled campaign, exit 2),
//   * a fenced zombie's stale snapshot, which must not override the
//     new owner's live progress.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "orch/journal.h"
#include "orch/lease.h"
#include "orch/status.h"
#include "util/fsio.h"
#include "util/status.h"

namespace poisonrec::orch {
namespace {

struct StatusDirs {
  std::string base;
  std::string journal;
  std::string telemetry;
  std::string leases;
};

StatusDirs MakeDirs(const char* name) {
  StatusDirs dirs;
  const auto base = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(base);
  dirs.base = base.string();
  dirs.journal = (base / "journal.jsonl").string();
  dirs.telemetry = (base / "telemetry").string();
  dirs.leases = (base / "leases").string();
  std::filesystem::create_directories(dirs.telemetry);
  std::filesystem::create_directories(dirs.leases);
  return dirs;
}

FleetStatusOptions MakeOptions(const StatusDirs& dirs, double now) {
  FleetStatusOptions options;
  options.journal_path = dirs.journal;
  options.checkpoint_dir = dirs.base;
  options.telemetry_dir = dirs.telemetry;
  options.now = [now] { return now; };
  // Default seam for these tests: every pid referenced is gone.
  options.pid_alive = [](std::uint64_t) { return false; };
  return options;
}

/// A minimal-but-complete worker_status payload; `campaigns` is the
/// JSON array literal, `counters` the metrics counter object literal.
std::string SnapshotJson(const std::string& worker, std::uint64_t pid,
                         double wall_unix, bool shutdown,
                         const std::string& campaigns,
                         const std::string& counters = "{}") {
  char head[512];
  std::snprintf(
      head, sizeof(head),
      "{\"type\":\"worker_status\",\"worker\":\"%s\",\"pid\":%llu,"
      "\"host\":\"testhost\",\"seq\":3,\"wall_unix\":%.3f,"
      "\"uptime_seconds\":4.5,\"publish_period_seconds\":0.25,"
      "\"lease_ttl_seconds\":2.0,\"shared\":true,\"shutdown\":%s,"
      "\"campaigns\":",
      worker.c_str(), static_cast<unsigned long long>(pid), wall_unix,
      shutdown ? "true" : "false");
  return std::string(head) + campaigns +
         ",\"metrics\":{\"wall_unix\":0,\"uptime_seconds\":0,"
         "\"counters\":" +
         counters + ",\"histograms\":{}}}";
}

void PublishSnapshot(const StatusDirs& dirs, const std::string& worker,
                     const std::string& payload) {
  const std::string path = dirs.telemetry + "/" + worker + ".status.json";
  ASSERT_TRUE(WriteFileDurableChecksummed(path, payload).ok());
}

void AppendJournal(const StatusDirs& dirs,
                   const CampaignJournalRecord& record) {
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dirs.journal).ok());
  ASSERT_TRUE(journal.Record(record));
  journal.Close();
}

CampaignJournalRecord Checkpointed(const std::string& id, std::uint64_t step,
                                   double reward, std::uint64_t token,
                                   const std::string& owner) {
  CampaignJournalRecord record;
  record.campaign_id = id;
  record.state = CampaignState::kCheckpointed;
  record.step = step;
  record.reward = reward;
  record.best_reward = reward;
  record.token = token;
  record.owner = owner;
  return record;
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

TEST(StatusTest, EmptyInputsDegradeWithNoFleetState) {
  const StatusDirs dirs = MakeDirs("poisonrec_status_empty");
  const FleetStatus status = CollectFleetStatus(MakeOptions(dirs, 1000.0));
  EXPECT_TRUE(status.degraded());
  EXPECT_EQ(status.ExitCode(), 2);
  EXPECT_TRUE(HasReasonContaining(status, "no fleet state found"));
  EXPECT_TRUE(status.workers.empty());
  EXPECT_TRUE(status.campaigns.empty());
  std::filesystem::remove_all(dirs.base);
}

TEST(StatusTest, HealthyFleetFoldsJournalLeasesAndSnapshots) {
  const StatusDirs dirs = MakeDirs("poisonrec_status_healthy");
  // Journal: c1 mid-flight at step 4, c2 finished.
  AppendJournal(dirs, Checkpointed("c1", 4, 0.5, 1, "wN"));
  CampaignJournalRecord done = Checkpointed("c2", 10, 0.8, 1, "wN");
  done.state = CampaignState::kDone;
  AppendJournal(dirs, done);

  // Fresh lease on c1 held by wN (renewed at t=1000, ttl 2s).
  LeaseManager leases(dirs.leases, "wN", /*ttl_seconds=*/2.0);
  ASSERT_TRUE(leases.Init().ok());
  leases.SetClockForTest([] { return 1000.0; });
  ASSERT_TRUE(leases.Acquire("c1").ok());

  // Live snapshot from wN: c1 running at step 5, 2 steps/s toward 10.
  PublishSnapshot(
      dirs, "wN",
      SnapshotJson("wN", 222, /*wall_unix=*/1000.2, /*shutdown=*/false,
                   "[{\"id\":\"c1\",\"slot\":\"running\","
                   "\"state\":\"running\",\"step\":5,\"total\":10,"
                   "\"last_reward\":0.55,\"best_reward\":0.6,"
                   "\"restarts\":0,\"preemptions\":1,\"token\":1,"
                   "\"step_rate\":2.0,\"running_seconds\":2.5}]",
                   "{\"poisonrec_fleet_status_snapshots_total\":3}"));

  FleetStatusOptions options = MakeOptions(dirs, /*now=*/1001.0);
  options.pid_alive = [](std::uint64_t pid) { return pid == 222; };
  const FleetStatus status = CollectFleetStatus(options);

  EXPECT_FALSE(status.degraded())
      << (status.degraded_reasons.empty() ? ""
                                          : status.degraded_reasons.front());
  EXPECT_EQ(status.ExitCode(), 0);
  ASSERT_EQ(status.workers.size(), 1u);
  EXPECT_EQ(status.workers[0].worker_id, "wN");
  EXPECT_EQ(status.workers[0].health, WorkerHealth::kLive);
  EXPECT_NEAR(status.workers[0].age_seconds, 0.8, 1e-9);
  EXPECT_EQ(status.workers_live, 1u);

  const CampaignStatusRow* c1 = FindCampaign(status, "c1");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->state, CampaignState::kRunning);
  EXPECT_EQ(c1->owner, "wN");
  EXPECT_EQ(c1->token, 1u);
  // Live snapshot step (5) wins over the journal frontier (4).
  EXPECT_EQ(c1->step, 5u);
  EXPECT_EQ(c1->total, 10u);
  EXPECT_TRUE(c1->running);
  EXPECT_TRUE(c1->lease_held);
  EXPECT_FALSE(c1->lease_expired);
  EXPECT_FALSE(c1->stalled);
  EXPECT_DOUBLE_EQ(c1->step_rate, 2.0);
  EXPECT_NEAR(c1->eta_seconds, 2.5, 1e-9);  // (10 - 5) / 2.0
  EXPECT_EQ(c1->preemptions, 1u);

  const CampaignStatusRow* c2 = FindCampaign(status, "c2");
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->state, CampaignState::kDone);
  EXPECT_EQ(c2->step, 10u);

  EXPECT_DOUBLE_EQ(status.aggregate_step_rate, 2.0);
  EXPECT_DOUBLE_EQ(
      status.counters.at("poisonrec_fleet_status_snapshots_total"), 3.0);
  EXPECT_EQ(status.hygiene.snapshots_ok, 1u);
  EXPECT_EQ(status.hygiene.leases_ok, 1u);
  EXPECT_EQ(status.hygiene.journal.files_merged, 1u);

  const std::string json = FleetStatusJson(status);
  EXPECT_NE(json.find("\"type\":\"fleet_status\""), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\":0"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"c1\""), std::string::npos);
  const std::string table = FormatFleetStatusTable(status);
  EXPECT_NE(table.find("healthy (exit 0)"), std::string::npos);
  EXPECT_NE(table.find("c1"), std::string::npos);
  std::filesystem::remove_all(dirs.base);
}

TEST(StatusTest, DamagedInputsClassifyIntoHygieneCountersWithoutCrash) {
  const StatusDirs dirs = MakeDirs("poisonrec_status_damage");
  const std::string good =
      SnapshotJson("wG", 1, 999.9, /*shutdown=*/true, "[]");

  // Torn: published without the integrity footer (interrupted publish).
  ASSERT_TRUE(
      WriteFileDurable(dirs.telemetry + "/wT.status.json", good).ok());
  // Corrupt: footer intact, one payload bit flipped after framing.
  {
    std::string framed = WithIntegrityFooter(good);
    framed[10] ^= 0x01;
    std::ofstream out(dirs.telemetry + "/wC.status.json",
                      std::ios::binary | std::ios::trunc);
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    ASSERT_TRUE(out.good());
  }
  // Invalid: correctly framed, but not a worker_status document.
  ASSERT_TRUE(WriteFileDurableChecksummed(dirs.telemetry + "/wI.status.json",
                                          "{\"type\":\"other\"}")
                  .ok());
  // Good: a cleanly exited worker.
  PublishSnapshot(dirs, "wG", good);
  // Damaged lease: a foreign blob sitting at a lease path.
  {
    std::ofstream out(dirs.leases + "/cX.lease", std::ios::trunc);
    out << "not a lease";
    ASSERT_TRUE(out.good());
  }

  const FleetStatus status = CollectFleetStatus(MakeOptions(dirs, 1000.0));
  EXPECT_EQ(status.hygiene.snapshots_torn, 1u);
  EXPECT_EQ(status.hygiene.snapshots_corrupt, 1u);
  EXPECT_EQ(status.hygiene.snapshots_invalid, 1u);
  EXPECT_EQ(status.hygiene.snapshots_ok, 1u);
  EXPECT_EQ(status.hygiene.leases_damaged, 1u);
  EXPECT_EQ(status.hygiene.leases_ok, 0u);
  // The surviving snapshot still renders; damage alone is not degraded.
  ASSERT_EQ(status.workers.size(), 1u);
  EXPECT_EQ(status.workers[0].worker_id, "wG");
  EXPECT_EQ(status.workers[0].health, WorkerHealth::kExited);
  EXPECT_FALSE(status.degraded())
      << (status.degraded_reasons.empty() ? ""
                                          : status.degraded_reasons.front());
  const std::string json = FleetStatusJson(status);
  EXPECT_NE(json.find("\"snapshots_torn\":1"), std::string::npos);
  EXPECT_NE(json.find("\"snapshots_corrupt\":1"), std::string::npos);
  std::filesystem::remove_all(dirs.base);
}

TEST(StatusTest, ExpiredLeaseOverLiveJournalMarksCampaignStalled) {
  const StatusDirs dirs = MakeDirs("poisonrec_status_stalled");
  AppendJournal(dirs, Checkpointed("c1", 4, 0.5, 1, "wA"));

  // Lease renewed at t=1000 with a 2s ttl; collection happens at
  // t=1010, so the heartbeat is 10s old — long expired.
  LeaseManager leases(dirs.leases, "wA", /*ttl_seconds=*/2.0);
  ASSERT_TRUE(leases.Init().ok());
  leases.SetClockForTest([] { return 1000.0; });
  ASSERT_TRUE(leases.Acquire("c1").ok());

  const FleetStatus status = CollectFleetStatus(MakeOptions(dirs, 1010.0));
  EXPECT_TRUE(status.degraded());
  EXPECT_EQ(status.ExitCode(), 2);
  EXPECT_TRUE(HasReasonContaining(status, "c1 stalled (lease expired)"));
  const CampaignStatusRow* c1 = FindCampaign(status, "c1");
  ASSERT_NE(c1, nullptr);
  EXPECT_TRUE(c1->lease_held);
  EXPECT_TRUE(c1->lease_expired);
  EXPECT_TRUE(c1->stalled);
  EXPECT_FALSE(IsTerminal(c1->state));
  const std::string table = FormatFleetStatusTable(status);
  EXPECT_NE(table.find("DEGRADED (exit 2)"), std::string::npos);
  EXPECT_NE(table.find("lease-expired"), std::string::npos);
  std::filesystem::remove_all(dirs.base);
}

TEST(StatusTest, FencedZombiesStaleSnapshotDoesNotOverrideNewOwner) {
  const StatusDirs dirs = MakeDirs("poisonrec_status_zombie");
  // The new owner's epoch (token 2) is authoritative in the journal.
  AppendJournal(dirs, Checkpointed("c1", 4, 0.5, 2, "wN"));

  // Zombie wZ (pid 111, dead): its last snapshot still claims c1
  // running at step 9 under the old token 1.
  PublishSnapshot(
      dirs, "wZ",
      SnapshotJson("wZ", 111, /*wall_unix=*/1000.4, /*shutdown=*/false,
                   "[{\"id\":\"c1\",\"slot\":\"running\","
                   "\"state\":\"running\",\"step\":9,\"total\":10,"
                   "\"last_reward\":0.9,\"best_reward\":0.9,"
                   "\"restarts\":0,\"preemptions\":0,\"token\":1,"
                   "\"step_rate\":9.0,\"running_seconds\":1.0}]"));
  // New owner wN (pid 222, alive): running c1 at step 5, token 2.
  PublishSnapshot(
      dirs, "wN",
      SnapshotJson("wN", 222, /*wall_unix=*/1000.5, /*shutdown=*/false,
                   "[{\"id\":\"c1\",\"slot\":\"running\","
                   "\"state\":\"running\",\"step\":5,\"total\":10,"
                   "\"last_reward\":0.55,\"best_reward\":0.6,"
                   "\"restarts\":1,\"preemptions\":0,\"token\":2,"
                   "\"step_rate\":2.0,\"running_seconds\":2.5}]"));

  FleetStatusOptions options = MakeOptions(dirs, /*now=*/1001.0);
  options.pid_alive = [](std::uint64_t pid) { return pid == 222; };
  const FleetStatus status = CollectFleetStatus(options);

  ASSERT_EQ(status.workers.size(), 2u);  // sorted: wN, wZ
  EXPECT_EQ(status.workers[0].worker_id, "wN");
  EXPECT_EQ(status.workers[0].health, WorkerHealth::kLive);
  EXPECT_EQ(status.workers[1].worker_id, "wZ");
  EXPECT_EQ(status.workers[1].health, WorkerHealth::kStale);
  EXPECT_EQ(status.workers_live, 1u);
  EXPECT_EQ(status.workers_stale, 1u);

  // The zombie makes the fleet degraded, but its tombstone snapshot
  // must not hijack the campaign row: owner, step, token, and rate all
  // come from the live owner (and the journal), not from wZ.
  EXPECT_TRUE(status.degraded());
  EXPECT_EQ(status.ExitCode(), 2);
  EXPECT_TRUE(HasReasonContaining(status, "worker wZ stale"));
  const CampaignStatusRow* c1 = FindCampaign(status, "c1");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->owner, "wN");
  EXPECT_EQ(c1->token, 2u);
  EXPECT_EQ(c1->step, 5u);  // not the zombie's stale 9
  EXPECT_DOUBLE_EQ(c1->step_rate, 2.0);
  EXPECT_DOUBLE_EQ(c1->last_reward, 0.55);
  EXPECT_EQ(c1->restarts, 1u);
  EXPECT_TRUE(c1->running);
  // c1 itself is not stalled: its owner is live.
  EXPECT_FALSE(c1->stalled);
  std::filesystem::remove_all(dirs.base);
}

}  // namespace
}  // namespace poisonrec::orch
