// Orchestrator tests: plan parsing/expansion, the crash-durable journal,
// supervisor fault classification (restart / quarantine / graceful
// stop), and whole-fleet runs including interrupt + rerun with
// bit-identical recovered rewards.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "orch/fleet.h"
#include "orch/journal.h"
#include "orch/json_reader.h"
#include "orch/lease.h"
#include "orch/spec.h"
#include "orch/supervisor.h"

namespace poisonrec::orch {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Folded campaigns of the journal family under `base`: the file itself
/// or, for a fleet's base path, every worker's `<stem>.<worker><ext>`.
/// A missing family is an error, like a missing file.
StatusOr<std::map<std::string, CampaignReplay>> ReplayFamily(
    const std::string& base) {
  std::vector<std::string> files = FleetJournal::ListJournalFiles(base);
  if (files.empty()) files.push_back(base);
  POISONREC_ASSIGN_OR_RETURN(JournalReplayResult result,
                             FleetJournal::Replay(files));
  return std::move(result.campaigns);
}

/// Every line of the journal family under `base`, file by file.
std::vector<std::string> JournalLines(const std::string& base) {
  std::vector<std::string> lines;
  for (const std::string& file : FleetJournal::ListJournalFiles(base)) {
    std::ifstream in(file);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  return lines;
}

data::Dataset MakeLog() {
  data::SyntheticConfig cfg;
  cfg.num_users = 120;
  cfg.num_items = 90;
  cfg.num_interactions = 1400;
  cfg.seed = 3;
  return data::GenerateSynthetic(cfg);
}

/// A campaign small enough to finish in tens of milliseconds but large
/// enough that steps produce observable reward structure.
CampaignSpec FastSpec(const std::string& id, std::uint64_t seed = 7) {
  CampaignSpec spec;
  spec.id = id;
  spec.steps = 3;
  spec.samples_per_step = 4;
  spec.attackers = 5;
  spec.trajectory_length = 5;
  spec.num_target_items = 2;
  spec.embedding_dim = 8;
  spec.max_eval_users = 48;
  spec.seed = seed;
  return spec;
}

// -- JSON reader ------------------------------------------------------------

TEST(JsonReaderTest, ParsesScalarsArraysAndNestedObjects) {
  auto parsed = ParseJson(
      R"({"s":"a\nb\u0041","n":-2.5e2,"t":true,"f":false,"z":null,)"
      R"("arr":[1,[2,3],{"k":"v"}]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("s")->string_value, "a\nbA");
  EXPECT_DOUBLE_EQ(root.Find("n")->number_value, -250.0);
  EXPECT_TRUE(root.Find("t")->bool_value);
  EXPECT_FALSE(root.Find("f")->bool_value);
  EXPECT_TRUE(root.Find("z")->is_null());
  const JsonValue* arr = root.Find("arr");
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->array[0].number_value, 1.0);
  EXPECT_EQ(arr->array[1].array.size(), 2u);
  EXPECT_EQ(arr->array[2].Find("k")->string_value, "v");
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,\"a\":2}").ok());  // duplicate key
  EXPECT_FALSE(ParseJson("[1 2]").ok());
  EXPECT_FALSE(ParseJson("\"\\ud800\"").ok());  // lone surrogate
  EXPECT_FALSE(ParseJson("nul").ok());
}

TEST(JsonReaderTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// -- Plan parsing -----------------------------------------------------------

TEST(SpecTest, ParsesDefaultsCampaignsAndSweepCrossProduct) {
  auto plan = ParseFleetPlanText(R"({
    "name": "nightly", "dataset": "MovieLens", "scale": 0.1,
    "defaults": {"steps": 4, "attackers": 7, "stall_timeout_seconds": 2.5},
    "campaigns": [{"id": "pinned", "ranker": "BPR", "priority": 3}],
    "sweep": {"rankers": ["ItemPop", "CoVisitation"],
              "fault_presets": ["clean", "flaky"],
              "defenses": [false, true],
              "budgets": [4]}
  })");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->name, "nightly");
  EXPECT_EQ(plan->dataset, "MovieLens");
  // 1 explicit + 2*2*2*1 swept.
  ASSERT_EQ(plan->campaigns.size(), 9u);
  const CampaignSpec& pinned = plan->campaigns[0];
  EXPECT_EQ(pinned.id, "pinned");
  EXPECT_EQ(pinned.ranker, "BPR");
  EXPECT_EQ(pinned.priority, 3);
  EXPECT_EQ(pinned.steps, 4u);          // from defaults
  EXPECT_EQ(pinned.attackers, 7u);      // from defaults
  EXPECT_DOUBLE_EQ(pinned.stall_timeout_seconds, 2.5);
  // Sweep ids are deterministic, and each cell gets its own seed.
  EXPECT_EQ(plan->campaigns[1].id, "ItemPop-clean-nodef-s4");
  EXPECT_EQ(plan->campaigns[2].id, "ItemPop-clean-def-s4");
  EXPECT_TRUE(plan->campaigns[2].defense);
  EXPECT_EQ(plan->campaigns[3].id, "ItemPop-flaky-nodef-s4");
  EXPECT_GT(plan->campaigns[3].fault.query_failure_rate, 0.0);
  EXPECT_NE(plan->campaigns[1].seed, plan->campaigns[2].seed);
}

TEST(SpecTest, RejectsUnknownKeysAndBadPlans) {
  // Misspelled supervision knob must fail loudly, not run unwatched.
  auto typo = ParseFleetPlanText(
      R"({"campaigns":[{"id":"a","stall_timeout_secs":1}]})");
  EXPECT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("stall_timeout_secs"),
            std::string::npos);

  EXPECT_FALSE(ParseFleetPlanText(R"({"campaigns":[]})").ok());
  EXPECT_FALSE(
      ParseFleetPlanText(R"({"campaigns":[{"id":"dup"},{"id":"dup"}]})")
          .ok());
  EXPECT_FALSE(
      ParseFleetPlanText(R"({"campaigns":[{"id":"bad id!"}]})").ok());
  EXPECT_FALSE(
      ParseFleetPlanText(R"({"defaults":{"id":"x"},"campaigns":[{"id":"a"}]})")
          .ok());
  EXPECT_FALSE(
      ParseFleetPlanText(R"({"campaigns":[{"id":"a","fault_preset":"wat"}]})")
          .ok());
  // Stale-reward faults break bit-identical recovery; refused up front.
  EXPECT_FALSE(ParseFleetPlanText(
                   R"({"campaigns":[{"id":"a","fault":{"stale":0.2}}]})")
                   .ok());
}

// A platform value the range rules beside its profile reject, or a
// ranker or detector name their factories do not know, fails the plan
// (and a submitted campaign) naming the campaign and the key, instead of
// aborting or burning restarts in the worker.
TEST(SpecTest, RejectsOutOfRangePlatformValuesAndUnknownNames) {
  const std::pair<const char*, const char*> cases[] = {
      {R"("fault":{"failure":1.5})", "failure"},
      {R"("fault":{"drop":-0.1})", "drop"},
      {R"("fault":{"noise":-1})", "noise"},
      {R"("defense_interval":0)", "defense_interval"},
      {R"("defense_ban_prob":2)", "defense_ban_prob"},
      {R"("ranker":"Bogus")", "ranker"},
      {R"("detector":"bogus")", "detector"},
  };
  for (const auto& [fragment, key] : cases) {
    SCOPED_TRACE(fragment);
    const std::string campaign =
        std::string(R"({"id":"c0",)") + fragment + "}";
    const StatusOr<FleetPlan> plan =
        ParseFleetPlanText(R"({"campaigns":[)" + campaign + "]}");
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find("\"c0\""), std::string::npos)
        << plan.status();
    EXPECT_NE(plan.status().message().find(std::string("\"") + key + "\""),
              std::string::npos)
        << plan.status();
    const StatusOr<CampaignSpec> submitted = ParseCampaignSpecText(campaign);
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.status().message(), plan.status().message());
  }
}

// An unknown dataset preset fails the plan naming the key, before any
// worker generates the log.
TEST(SpecTest, RejectsUnknownDataset) {
  const StatusOr<FleetPlan> plan = ParseFleetPlanText(
      R"({"dataset":"Bogus","campaigns":[{"id":"c0"}]})");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("\"dataset\""), std::string::npos)
      << plan.status();
  EXPECT_NE(plan.status().message().find("Bogus"), std::string::npos)
      << plan.status();
}

TEST(SpecTest, AttackerConfigIsGuardedAndSingleThreaded) {
  CampaignSpec spec = FastSpec("cfg");
  spec.retry_attempts = 6;
  spec.retry_deadline_seconds = 1.5;
  const core::PoisonRecConfig config = MakeAttackerConfig(spec);
  EXPECT_TRUE(config.guard.enabled);
  EXPECT_EQ(config.num_threads, 1u);
  EXPECT_FALSE(config.parallel_rewards);
  EXPECT_EQ(config.retry.max_attempts, 6u);
  EXPECT_DOUBLE_EQ(config.retry.max_elapsed_seconds, 1.5);
}

// -- Journal ----------------------------------------------------------------

TEST(JournalTest, ReplayFoldsRecordsAndSkipsTornTrailingLine) {
  const std::string dir = TempDir("poisonrec_journal_test");
  const std::string path = dir + "/journal.jsonl";
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    CampaignJournalRecord r;
    r.campaign_id = "a";
    r.state = CampaignState::kPending;
    ASSERT_TRUE(journal.Record(r));
    r.state = CampaignState::kRunning;
    ASSERT_TRUE(journal.Record(r));
    r.state = CampaignState::kCheckpointed;
    r.step = 1;
    r.reward = 2.0;
    r.best_reward = 2.0;
    ASSERT_TRUE(journal.Record(r));
    r.step = 2;
    r.reward = 5.0;
    r.best_reward = 5.0;
    ASSERT_TRUE(journal.Record(r));
    CampaignJournalRecord q;
    q.campaign_id = "b";
    q.state = CampaignState::kQuarantined;
    q.detail = "stalled";
    q.restarts = 2;
    ASSERT_TRUE(journal.Record(q));
    journal.Close();
  }
  // Simulate a crash mid-append: a torn half-line at the tail.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"type\":\"campaign\",\"id\":\"a\",\"sta";
  }
  auto replay = ReplayFamily(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_EQ(replay->size(), 2u);
  const CampaignReplay& a = replay->at("a");
  EXPECT_EQ(a.state, CampaignState::kCheckpointed);
  EXPECT_EQ(a.steps_completed, 2u);
  ASSERT_EQ(a.step_rewards.size(), 2u);
  EXPECT_DOUBLE_EQ(a.step_rewards.at(1), 2.0);
  EXPECT_DOUBLE_EQ(a.step_rewards.at(2), 5.0);
  EXPECT_DOUBLE_EQ(a.best_reward, 5.0);
  const CampaignReplay& b = replay->at("b");
  EXPECT_TRUE(IsTerminal(b.state));
  EXPECT_EQ(b.detail, "stalled");
  EXPECT_EQ(b.restarts, 2u);

  EXPECT_FALSE(ReplayFamily(dir + "/missing.jsonl").ok());
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, CorruptedMidFileRecordIsSkippedAndCounted) {
  const std::string dir = TempDir("poisonrec_journal_corrupt");
  const std::string path = dir + "/journal.jsonl";
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    CampaignJournalRecord r;
    r.campaign_id = "a";
    r.state = CampaignState::kCheckpointed;
    for (std::uint64_t step = 1; step <= 3; ++step) {
      r.step = step;
      r.reward = static_cast<double>(step) * 2.0;
      r.best_reward = r.reward;
      ASSERT_TRUE(journal.Record(r));
    }
    r.state = CampaignState::kDone;
    ASSERT_TRUE(journal.Record(r));
    journal.Close();
  }
  // Rot one byte of the step-2 record. The line stays structurally
  // valid JSON — a parser alone would happily fold the wrong reward —
  // but its CRC32C line checksum no longer matches.
  {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    in.close();
    ASSERT_EQ(lines.size(), 4u);
    const std::size_t pos = lines[1].find("\"reward\":");
    ASSERT_NE(pos, std::string::npos) << lines[1];
    lines[1][pos + 9] ^= 0x1;  // flip a bit of the reward digit
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  auto merged = FleetJournal::Replay({path});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->corrupt_lines, 1u);
  EXPECT_EQ(merged->malformed_lines, 0u);
  EXPECT_EQ(merged->torn_tail_lines, 0u);
  const CampaignReplay& a = merged->campaigns.at("a");
  // The rotted record is skipped, not trusted: step 2's reward is gone,
  // the surrounding fold is untouched.
  EXPECT_EQ(a.state, CampaignState::kDone);
  ASSERT_EQ(a.step_rewards.size(), 2u);
  EXPECT_DOUBLE_EQ(a.step_rewards.at(1), 2.0);
  EXPECT_DOUBLE_EQ(a.step_rewards.at(3), 6.0);
  EXPECT_EQ(a.step_rewards.count(2), 0u);
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, StateNamesRoundTrip) {
  for (const CampaignState state :
       {CampaignState::kPending, CampaignState::kRunning,
        CampaignState::kCheckpointed, CampaignState::kDone,
        CampaignState::kQuarantined, CampaignState::kFailed,
        CampaignState::kPreempted}) {
    auto parsed = ParseCampaignState(CampaignStateName(state));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, state);
  }
  EXPECT_FALSE(ParseCampaignState("resting").ok());
}

TEST(JournalTest, TokenAwareMergeRejectsStaleEpochsInAnyOrder) {
  const std::string dir = TempDir("poisonrec_journal_merge");
  const std::string a_path = dir + "/journal.wA.jsonl";
  const std::string b_path = dir + "/journal.wB.jsonl";
  // Worker A owned epoch 1 (token 1), committed steps 1-2, then lost
  // the lease. Its file also carries an unknown record type (ignored)
  // and a corrupted interior line (counted as real corruption).
  {
    std::ofstream a(a_path);
    a << R"({"type":"campaign","id":"c","state":"pending","token":1,"owner":"wA"})"
      << "\n"
      << R"({"type":"campaign","id":"c","state":"running","token":1,"owner":"wA"})"
      << "\n"
      << R"({"type":"campaign","id":"c","state":"checkpointed","step":1,"reward":1.5,"best_reward":1.5,"token":1,"owner":"wA"})"
      << "\n"
      << R"({"type":"note","detail":"unknown record types are ignored"})"
      << "\n"
      << "%% corrupted interior line %%\n"
      << R"({"type":"campaign","id":"c","state":"checkpointed","step":2,"reward":2.5,"best_reward":2.5,"token":1,"owner":"wA"})"
      << "\n";
  }
  // Worker B seized the campaign (token 2), committed step 3, finished,
  // and was then killed mid-append (torn trailing line).
  {
    std::ofstream b(b_path);
    b << R"({"type":"campaign","id":"c","state":"running","token":2,"owner":"wB"})"
      << "\n"
      << R"({"type":"campaign","id":"c","state":"checkpointed","step":3,"reward":3.5,"best_reward":3.5,"token":2,"owner":"wB"})"
      << "\n"
      << R"({"type":"campaign","id":"c","state":"done","step":3,"reward":3.5,"best_reward":3.5,"token":2,"owner":"wB"})"
      << "\n"
      << R"({"type":"campaign","id":"c","sta)";
  }

  // ListJournalFiles finds the whole per-worker family of the base path.
  const std::vector<std::string> family =
      FleetJournal::ListJournalFiles(dir + "/journal.jsonl");
  ASSERT_EQ(family.size(), 2u);
  EXPECT_EQ(family[0], a_path);
  EXPECT_EQ(family[1], b_path);

  // The fold must converge to the same authoritative state regardless
  // of file order; only the stale-record COUNT is order-dependent (a
  // stale write is only recognizable once a higher token was seen).
  for (const bool a_first : {true, false}) {
    const std::vector<std::string> order =
        a_first ? std::vector<std::string>{a_path, b_path}
                : std::vector<std::string>{b_path, a_path};
    auto merged = FleetJournal::Replay(order);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->files_merged, 2u);
    EXPECT_EQ(merged->malformed_lines, 1u);
    EXPECT_EQ(merged->torn_tail_lines, 1u);
    const CampaignReplay& c = merged->campaigns.at("c");
    EXPECT_EQ(c.state, CampaignState::kDone);
    EXPECT_EQ(c.token, 2u);
    EXPECT_EQ(c.steps_completed, 3u);
    // Step rewards merge ACROSS epochs: A's committed steps 1-2 are
    // kept (deterministic — B resumed from A's checkpoint), B owns
    // step 3.
    ASSERT_EQ(c.step_rewards.size(), 3u);
    EXPECT_DOUBLE_EQ(c.step_rewards.at(1), 1.5);
    EXPECT_DOUBLE_EQ(c.step_rewards.at(2), 2.5);
    EXPECT_DOUBLE_EQ(c.step_rewards.at(3), 3.5);
    EXPECT_DOUBLE_EQ(c.best_reward, 3.5);
    if (a_first) {
      EXPECT_EQ(merged->stale_records, 0u);
    } else {
      // B's epoch-2 records fold first, so A's epoch-1 running +
      // 2 checkpointed records are stale. Its duplicate `pending` is
      // skipped silently — every shared worker journals pending for
      // the whole plan, those are expected, not zombie writes.
      EXPECT_EQ(merged->stale_records, 3u);
    }
  }
  std::filesystem::remove_all(dir);
}

// -- Supervisor -------------------------------------------------------------

/// Supervisors fence every write through a campaign lease: acquires
/// `id`'s lease under `<dir>/leases` and points `options` at it. The
/// returned manager must outlive the supervisor.
std::unique_ptr<LeaseManager> HoldLease(const std::string& dir,
                                        const std::string& id,
                                        SupervisorOptions* options) {
  auto leases = std::make_unique<LeaseManager>(dir + "/leases",
                                               "supervisor-test", 5.0);
  EXPECT_TRUE(leases->Init().ok());
  StatusOr<LeaseInfo> lease = leases->Acquire(id);
  EXPECT_TRUE(lease.ok()) << lease.status();
  options->leases = leases.get();
  options->lease_token = lease.ok() ? lease->token : 0;
  return leases;
}

TEST(SupervisorTest, CleanCampaignRunsToDoneAndJournalsEverySteps) {
  const std::string dir = TempDir("poisonrec_supervisor_done");
  const data::Dataset log = MakeLog();
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir + "/journal.jsonl").ok());
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  options.journal = &journal;
  const auto lease = HoldLease(dir, "clean", &options);
  CampaignSupervisor supervisor(FastSpec("clean"), &log, options);
  const CampaignOutcome outcome = supervisor.Run();
  journal.Close();
  EXPECT_EQ(outcome.state, CampaignState::kDone);
  EXPECT_EQ(outcome.steps_completed, 3u);
  EXPECT_EQ(outcome.restarts, 0u);
  EXPECT_EQ(outcome.step_rewards.size(), 3u);
  EXPECT_TRUE(std::filesystem::exists(supervisor.CheckpointPath()));

  auto replay = ReplayFamily(dir + "/journal.jsonl");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->at("clean").state, CampaignState::kDone);
  EXPECT_EQ(replay->at("clean").steps_completed, 3u);
  std::filesystem::remove_all(dir);
}

TEST(SupervisorTest, AbortWithRestartBudgetRestartsThenCompletes) {
  const std::string dir = TempDir("poisonrec_supervisor_restart");
  const data::Dataset log = MakeLog();
  CampaignSpec spec = FastSpec("restarts");
  spec.max_restarts = 2;
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  options.restart_sleep = [](double) {};
  const auto lease = HoldLease(dir, spec.id, &options);
  CampaignSupervisor supervisor(spec, &log, options);
  // Abort before Run: the first attempt observes the cancellation at its
  // first step boundary, the supervisor restarts, the second attempt
  // finishes. Deterministic — no timing window.
  supervisor.Abort("injected stall", /*allow_restart=*/true);
  const CampaignOutcome outcome = supervisor.Run();
  EXPECT_EQ(outcome.state, CampaignState::kDone);
  EXPECT_EQ(outcome.restarts, 1u);
  EXPECT_EQ(outcome.steps_completed, 3u);
  std::filesystem::remove_all(dir);
}

TEST(SupervisorTest, AbortWithoutRestartBudgetQuarantines) {
  const std::string dir = TempDir("poisonrec_supervisor_quarantine");
  const data::Dataset log = MakeLog();
  CampaignSpec spec = FastSpec("starved");
  spec.max_restarts = 0;
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  options.restart_sleep = [](double) {};
  const auto lease = HoldLease(dir, spec.id, &options);
  CampaignSupervisor supervisor(spec, &log, options);
  supervisor.Abort("stall: no heartbeat", /*allow_restart=*/true);
  const CampaignOutcome outcome = supervisor.Run();
  EXPECT_EQ(outcome.state, CampaignState::kQuarantined);
  EXPECT_NE(outcome.detail.find("restart budget exhausted"),
            std::string::npos)
      << outcome.detail;
  EXPECT_NE(outcome.detail.find("stall"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(SupervisorTest, DeadlineAbortQuarantinesWithoutBurningRestarts) {
  const std::string dir = TempDir("poisonrec_supervisor_deadline");
  const data::Dataset log = MakeLog();
  CampaignSpec spec = FastSpec("overdue");
  spec.max_restarts = 5;  // must NOT be consumed by a deadline abort
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  const auto lease = HoldLease(dir, spec.id, &options);
  CampaignSupervisor supervisor(spec, &log, options);
  supervisor.Abort("deadline exceeded", /*allow_restart=*/false);
  const CampaignOutcome outcome = supervisor.Run();
  EXPECT_EQ(outcome.state, CampaignState::kQuarantined);
  EXPECT_EQ(outcome.restarts, 0u);
  EXPECT_NE(outcome.detail.find("deadline"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(SupervisorTest, PoolExhaustionTripsTheCircuitBreaker) {
  const std::string dir = TempDir("poisonrec_supervisor_pool");
  const data::Dataset log = MakeLog();
  CampaignSpec spec = FastSpec("banned");
  // An aggressive defender with a tiny pool: bans outpace replacement,
  // TrainGuarded aborts kResourceExhausted, and the supervisor must
  // quarantine immediately (deterministic replay) instead of restarting.
  spec.defense = true;
  spec.pool_reserve = 1;
  spec.pool_min_live = spec.attackers;
  spec.steps = 12;
  spec.max_restarts = 3;
  spec.defense_profile.detection_interval = 2;
  spec.defense_profile.bans_per_sweep = 3;
  spec.defense_profile.ban_probability = 1.0;
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  options.restart_sleep = [](double) {};
  const auto lease = HoldLease(dir, spec.id, &options);
  CampaignSupervisor supervisor(spec, &log, options);
  const CampaignOutcome outcome = supervisor.Run();
  EXPECT_EQ(outcome.state, CampaignState::kQuarantined);
  EXPECT_EQ(outcome.restarts, 0u) << outcome.detail;
  EXPECT_NE(outcome.detail.find("pool exhausted"), std::string::npos)
      << outcome.detail;
  std::filesystem::remove_all(dir);
}

TEST(SupervisorTest, TerminalJournalStateIsRecoveredWithoutRerunning) {
  const std::string dir = TempDir("poisonrec_supervisor_recovered");
  const data::Dataset log = MakeLog();
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  CampaignReplay replay;
  replay.state = CampaignState::kDone;
  replay.steps_completed = 3;
  replay.best_reward = 4.5;
  replay.step_rewards = {{1, 1.0}, {2, 3.0}, {3, 4.5}};
  options.replay = replay;
  const auto lease = HoldLease(dir, "already-done", &options);
  CampaignSupervisor supervisor(FastSpec("already-done"), &log, options);
  const CampaignOutcome outcome = supervisor.Run();
  EXPECT_EQ(outcome.state, CampaignState::kDone);
  EXPECT_TRUE(outcome.recovered_from_journal);
  EXPECT_EQ(outcome.steps_completed, 3u);
  EXPECT_DOUBLE_EQ(outcome.best_reward, 4.5);
  // Recovered, so no checkpoint was ever written.
  EXPECT_FALSE(std::filesystem::exists(supervisor.CheckpointPath()));
  std::filesystem::remove_all(dir);
}

TEST(SupervisorTest, LegacyPlainCheckpointResumesUnderALeaseToken) {
  const data::Dataset log = MakeLog();
  CampaignSpec spec = FastSpec("legacy");
  spec.steps = 6;

  // Reference: six steps straight through.
  const std::string ref_dir = TempDir("poisonrec_supervisor_legacy_ref");
  SupervisorOptions ref_options;
  ref_options.checkpoint_dir = ref_dir;
  const auto ref_lease = HoldLease(ref_dir, spec.id, &ref_options);
  const CampaignOutcome reference =
      CampaignSupervisor(spec, &log, ref_options).Run();
  ASSERT_EQ(reference.state, CampaignState::kDone);

  // A state dir written before every fleet held leases: the first three
  // steps published under the plain `<id>.ckpt` name, and no lease.
  const std::string dir = TempDir("poisonrec_supervisor_legacy");
  const std::string legacy = dir + "/legacy.ckpt";
  {
    CampaignSpec first_half = spec;
    first_half.steps = 3;
    SupervisorOptions options;
    options.checkpoint_dir = dir;
    const auto lease = HoldLease(dir, spec.id, &options);
    CampaignSupervisor supervisor(first_half, &log, options);
    ASSERT_EQ(supervisor.Run().state, CampaignState::kDone);
    std::filesystem::rename(supervisor.CheckpointPath(), legacy);
  }
  std::filesystem::remove_all(dir + "/leases");

  SupervisorOptions options;
  options.checkpoint_dir = dir;
  const auto lease = HoldLease(dir, spec.id, &options);
  ASSERT_GE(options.lease_token, 1u);
  CampaignSupervisor supervisor(spec, &log, options);
  const CampaignOutcome resumed = supervisor.Run();
  EXPECT_EQ(resumed.state, CampaignState::kDone);
  EXPECT_EQ(resumed.steps_completed, 6u);
  EXPECT_EQ(resumed.token, options.lease_token);
  // Resumed from the legacy file: only steps 4-6 ran, and they match
  // the straight run, as does the best episode the checkpoint carried.
  ASSERT_EQ(resumed.step_rewards.size(), 3u);
  for (const auto& [step, reward] : resumed.step_rewards) {
    EXPECT_GE(step, 4u);
    EXPECT_DOUBLE_EQ(reward, reference.step_rewards.at(step))
        << "step " << step;
  }
  EXPECT_DOUBLE_EQ(resumed.best_reward, reference.best_reward);
  // The new epoch publishes under its own name; the legacy file stays.
  EXPECT_TRUE(std::filesystem::exists(supervisor.CheckpointPath()));
  EXPECT_TRUE(std::filesystem::exists(legacy));
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);
}

// -- Checkpoint names -------------------------------------------------------

TEST(CheckpointNameTest, ListCheckpointsTable) {
  const std::string dir = TempDir("poisonrec_checkpoint_names");
  for (const char* name :
       {"c0.t1.ckpt", "c0.t12.ckpt", "c0.ckpt", "a.b.t3.ckpt", "a.b.ckpt",
        "x.t5.ckpt", "x.t5.t2.ckpt", "x.tail.ckpt", "c0.t.ckpt",
        "c0.tx.ckpt", "c0.t7.ckpt.tmp", "c0.t8", "c0.lease", "c0.t9.ckpt~"}) {
    std::ofstream(dir + "/" + name) << "x";
  }
  // Expected (token, file name) lists, highest token first. `x.t5.ckpt`
  // is both campaign x's epoch 5 and campaign x.t5's plain checkpoint.
  const std::vector<std::pair<std::string,
                              std::vector<std::pair<std::uint64_t,
                                                    std::string>>>>
      table = {
          {"c0", {{12, "c0.t12.ckpt"}, {1, "c0.t1.ckpt"}, {0, "c0.ckpt"}}},
          {"a.b", {{3, "a.b.t3.ckpt"}, {0, "a.b.ckpt"}}},
          {"x", {{5, "x.t5.ckpt"}}},
          {"x.t5", {{2, "x.t5.t2.ckpt"}, {0, "x.t5.ckpt"}}},
          {"x.tail", {{0, "x.tail.ckpt"}}},
          {"c0.t", {{0, "c0.t.ckpt"}}},
          {"c0.tx", {{0, "c0.tx.ckpt"}}},
          {"a", {}},
          {"missing", {}},
      };
  for (const auto& [id, expected] : table) {
    std::vector<std::pair<std::uint64_t, std::string>> listed;
    for (const auto& [token, path] : ListCheckpoints(dir, id)) {
      listed.emplace_back(token,
                          std::filesystem::path(path).filename().string());
    }
    EXPECT_EQ(listed, expected) << "campaign " << id;
  }
  EXPECT_TRUE(ListCheckpoints(dir + "/absent", "c0").empty());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointNameTest, ParseSplitsIdAndToken) {
  struct Case {
    const char* name;
    bool parses;
    const char* id;
    std::uint64_t token;
  };
  for (const Case& c : std::vector<Case>{
           {"c0.t12.ckpt", true, "c0", 12},
           {"c0.ckpt", true, "c0", 0},
           {"a.b.t3.ckpt", true, "a.b", 3},
           {"x.t5.ckpt", true, "x", 5},
           {"x.t5.t2.ckpt", true, "x.t5", 2},
           {"c0.t.ckpt", true, "c0.t", 0},
           {"c0.tx.ckpt", true, "c0.tx", 0},
           {"c0.t7.ckpt.tmp", false, "", 0},
           {"c0.t8", false, "", 0},
       }) {
    const std::optional<CheckpointName> parsed = ParseCheckpointName(c.name);
    ASSERT_EQ(parsed.has_value(), c.parses) << c.name;
    if (!c.parses) continue;
    EXPECT_EQ(parsed->campaign_id, c.id) << c.name;
    EXPECT_EQ(parsed->token, c.token) << c.name;
  }
}

// -- Fleet ------------------------------------------------------------------

FleetPlan SmallPlan(std::size_t campaigns, std::size_t steps = 3) {
  FleetPlan plan;
  plan.name = "test-fleet";
  for (std::size_t i = 0; i < campaigns; ++i) {
    CampaignSpec spec = FastSpec("c" + std::to_string(i), 7 + i * 13);
    spec.steps = steps;
    plan.campaigns.push_back(std::move(spec));
  }
  return plan;
}

FleetOptions DirOptions(const std::string& dir) {
  FleetOptions options;
  options.journal_path = dir + "/journal.jsonl";
  options.checkpoint_dir = dir + "/ckpts";
  options.report_json_path = dir + "/report.json";
  options.report_csv_path = dir + "/report.csv";
  options.restart_sleep = [](double) {};
  return options;
}

/// Runs the fleet until its journal family holds `min_steps` committed
/// steps in total, then shuts it down gracefully.
FleetResult RunUntilCommitted(const FleetPlan& plan, const data::Dataset& log,
                              const FleetOptions& options,
                              std::uint64_t min_steps) {
  FleetOrchestrator orchestrator(plan, &log, options);
  FleetResult result;
  std::thread runner([&] { result = orchestrator.Run(); });
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t committed = 0;
    if (auto replay = ReplayFamily(options.journal_path); replay.ok()) {
      for (const auto& [id, entry] : *replay) {
        committed += entry.steps_completed;
      }
    }
    if (committed >= min_steps) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  orchestrator.RequestShutdown();
  runner.join();
  return result;
}

TEST(FleetTest, ExitCodeMapping) {
  FleetResult result;
  EXPECT_EQ(result.ExitCode(), 0);
  result.quarantined = 1;
  EXPECT_EQ(result.ExitCode(), 2);
  result.quarantined = 0;
  result.interrupted = 2;
  EXPECT_EQ(result.ExitCode(), 2);
  result.status = Status::InvalidArgument("bad plan");
  EXPECT_EQ(result.ExitCode(), 1);
}

TEST(FleetTest, InvalidPlanFailsFastWithExitCodeOne) {
  const std::string dir = TempDir("poisonrec_fleet_badplan");
  const data::Dataset log = MakeLog();
  FleetPlan plan = SmallPlan(2);
  plan.campaigns[1].id = plan.campaigns[0].id;  // duplicate
  FleetOrchestrator orchestrator(plan, &log, DirOptions(dir));
  const FleetResult result = orchestrator.Run();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.ExitCode(), 1);
  EXPECT_TRUE(result.outcomes.empty());
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, RejectsALeaseTtlThatIsNotFiniteAndPositive) {
  const data::Dataset log = MakeLog();
  for (const double ttl : {0.0, -1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(ttl);
    const std::string dir = TempDir("poisonrec_fleet_bad_ttl");
    FleetOptions options = DirOptions(dir);
    options.lease_ttl_seconds = ttl;
    FleetOrchestrator orchestrator(SmallPlan(1), &log, options);
    const FleetResult result = orchestrator.Run();
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << result.status;
    EXPECT_EQ(result.ExitCode(), 1);
    EXPECT_TRUE(result.outcomes.empty());
    // Rejected before anything touched disk.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
  }
}

TEST(FleetTest, RerunOverOneStateDirRecoversEveryCampaignFromTheJournal) {
  const std::string dir = TempDir("poisonrec_fleet_rerun");
  const data::Dataset log = MakeLog();
  const FleetPlan plan = SmallPlan(3);
  const FleetOptions options = DirOptions(dir);
  FleetOrchestrator first_run(plan, &log, options);
  const FleetResult first = first_run.Run();
  ASSERT_EQ(first.ExitCode(), 0) << first.status;

  // The same command again continues the state dir: every campaign is
  // recovered from the journal, none re-runs.
  FleetOrchestrator second_run(plan, &log, options);
  const FleetResult second = second_run.Run();
  ASSERT_EQ(second.ExitCode(), 0) << second.status;
  EXPECT_EQ(second.done, 3u);
  EXPECT_EQ(second.recovered, 3u);
  ASSERT_EQ(second.outcomes.size(), first.outcomes.size());
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    const CampaignOutcome& a = first.outcomes[i];
    const CampaignOutcome& b = second.outcomes[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(b.state, CampaignState::kDone) << b.id;
    EXPECT_TRUE(b.recovered_from_journal) << b.id;
    EXPECT_EQ(b.steps_completed, 3u) << b.id;
    EXPECT_EQ(b.step_rewards, a.step_rewards) << b.id;
    EXPECT_DOUBLE_EQ(b.best_reward, a.best_reward) << b.id;
  }
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, DeletedLeaseDirDoesNotRewindTheFencingToken) {
  const data::Dataset log = MakeLog();
  const FleetPlan plan = SmallPlan(1, /*steps=*/30);
  const std::string ref_dir = TempDir("poisonrec_fleet_lease_ref");
  FleetOrchestrator reference_run(plan, &log, DirOptions(ref_dir));
  const FleetResult reference = reference_run.Run();
  ASSERT_EQ(reference.ExitCode(), 0) << reference.status;

  // Two interrupted runs leave the campaign mid-flight at token 2.
  const std::string dir = TempDir("poisonrec_fleet_lease_lost");
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 1;
  const FleetResult first = RunUntilCommitted(plan, log, options, 2);
  ASSERT_EQ(first.interrupted, 1u) << "fleet finished - grow the plan";
  const FleetResult second = RunUntilCommitted(
      plan, log, options, first.outcomes[0].steps_completed + 2);
  ASSERT_EQ(second.interrupted, 1u) << "fleet finished - grow the plan";
  ASSERT_EQ(second.outcomes[0].token, 2u);

  // Every lease is lost. The finishing run must still open an epoch
  // above token 2, or replay would call its records stale.
  std::filesystem::remove_all(options.checkpoint_dir + "/leases");
  FleetOrchestrator finishing_run(plan, &log, options);
  const FleetResult finished = finishing_run.Run();
  ASSERT_EQ(finished.ExitCode(), 0) << finished.status;
  EXPECT_EQ(finished.journal.stale_records, 0u);
  EXPECT_EQ(finished.outcomes[0].token, 3u);
  EXPECT_EQ(finished.outcomes[0].step_rewards,
            reference.outcomes[0].step_rewards);

  // And a further run recovers the campaign without re-running a step:
  // it appends nothing to the journal.
  const std::size_t lines_before = JournalLines(options.journal_path).size();
  FleetOrchestrator rerun(plan, &log, options);
  const FleetResult recovered = rerun.Run();
  ASSERT_EQ(recovered.ExitCode(), 0) << recovered.status;
  EXPECT_TRUE(recovered.outcomes[0].recovered_from_journal);
  EXPECT_EQ(JournalLines(options.journal_path).size(), lines_before);
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);
}

// A worker that dies after publishing a step's checkpoint but before
// journaling the step leaves the checkpoint one step past the journal.
// Resuming from it would never run or record that step again, so the
// next run must resume from a point the journal covers and replay it.
TEST(FleetTest, CheckpointPastTheJournalIsNotResumedFrom) {
  const data::Dataset log = MakeLog();
  const FleetPlan plan = SmallPlan(1, /*steps=*/30);
  const std::string ref_dir = TempDir("poisonrec_fleet_unjournaled_ref");
  FleetOrchestrator reference_run(plan, &log, DirOptions(ref_dir));
  const FleetResult reference = reference_run.Run();
  ASSERT_EQ(reference.ExitCode(), 0) << reference.status;

  const std::string dir = TempDir("poisonrec_fleet_unjournaled");
  FleetOptions options = DirOptions(dir);
  const FleetResult first = RunUntilCommitted(plan, log, options, 3);
  ASSERT_EQ(first.interrupted, 1u) << "fleet finished - grow the plan";
  const std::uint64_t last = first.outcomes[0].steps_completed;
  ASSERT_GE(last, 3u);

  // Drop every journal record of the last step; its checkpoint stays.
  const std::string marker = "\"step\":" + std::to_string(last) + ",";
  std::size_t dropped = 0;
  for (const std::string& file :
       FleetJournal::ListJournalFiles(options.journal_path)) {
    std::vector<std::string> kept;
    {
      std::ifstream in(file);
      for (std::string line; std::getline(in, line);) {
        if (line.find(marker) == std::string::npos) {
          kept.push_back(line);
        } else {
          ++dropped;
        }
      }
    }
    std::ofstream out(file, std::ios::trunc);
    for (const std::string& line : kept) out << line << "\n";
  }
  ASSERT_GT(dropped, 0u);

  FleetOrchestrator finishing_run(plan, &log, options);
  const FleetResult finished = finishing_run.Run();
  ASSERT_EQ(finished.ExitCode(), 0) << finished.status;
  EXPECT_EQ(finished.outcomes[0].step_rewards,
            reference.outcomes[0].step_rewards);
  EXPECT_EQ(finished.outcomes[0].steps_completed, 30u);
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, DamagedLeaseIsSeizedInsteadOfWedgingTheFleet) {
  const std::string dir = TempDir("poisonrec_fleet_torn_lease");
  const data::Dataset log = MakeLog();
  FleetOptions options = DirOptions(dir);
  options.lease_ttl_seconds = 0.2;
  // A torn lease for c0, as a crash inside a non-atomic rename leaves
  // it: no owner or token can be read from it.
  std::filesystem::create_directories(options.checkpoint_dir + "/leases");
  {
    std::ofstream out(options.checkpoint_dir + "/leases/c0.lease");
    out << R"({"type":"lease","campaign_id":"c0","own)";
  }
  FleetOrchestrator orchestrator(SmallPlan(2), &log, options);
  FleetResult result;
  std::atomic<bool> finished{false};
  std::thread runner([&] {
    result = orchestrator.Run();
    finished.store(true);
  });
  // Bounded: a lease that is never seized would wedge Run forever.
  for (int i = 0; i < 3000 && !finished.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool wedged = !finished.load();
  if (wedged) orchestrator.RequestShutdown();
  runner.join();
  ASSERT_FALSE(wedged) << "c0's damaged lease was never seized";
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ExitCode(), 0);
  EXPECT_EQ(result.done, 2u);
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, ConcurrentFleetCompletesAndWritesReports) {
  const std::string dir = TempDir("poisonrec_fleet_full");
  const data::Dataset log = MakeLog();
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 3;
  FleetOrchestrator orchestrator(SmallPlan(4), &log, options);
  const FleetResult result = orchestrator.Run();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ExitCode(), 0);
  EXPECT_EQ(result.done, 4u);
  ASSERT_EQ(result.outcomes.size(), 4u);
  for (const CampaignOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.state, CampaignState::kDone);
    EXPECT_EQ(outcome.steps_completed, 3u);
  }

  // Reports exist and the JSON one parses with our own reader.
  std::ifstream json_in(options.report_json_path);
  ASSERT_TRUE(json_in.good());
  std::string json_text((std::istreambuf_iterator<char>(json_in)),
                        std::istreambuf_iterator<char>());
  auto report = ParseJson(json_text);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->Find("type")->string_value, "fleet_report");
  EXPECT_DOUBLE_EQ(
      report->Find("summary")->Find("done")->number_value, 4.0);
  EXPECT_EQ(report->Find("campaigns")->array.size(), 4u);
  EXPECT_TRUE(std::filesystem::exists(options.report_csv_path));

  // The journal agrees with the in-memory outcomes.
  auto replay = ReplayFamily(options.journal_path);
  ASSERT_TRUE(replay.ok());
  for (const CampaignOutcome& outcome : result.outcomes) {
    EXPECT_EQ(replay->at(outcome.id).state, CampaignState::kDone);
    EXPECT_EQ(replay->at(outcome.id).steps_completed, 3u);
  }
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, PriorityOrdersExecutionUnderSingleWorker) {
  const std::string dir = TempDir("poisonrec_fleet_priority");
  const data::Dataset log = MakeLog();
  FleetPlan plan = SmallPlan(3, /*steps=*/1);
  plan.campaigns[0].priority = 0;
  plan.campaigns[1].priority = 5;
  plan.campaigns[2].priority = 2;
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 1;
  FleetOrchestrator orchestrator(plan, &log, options);
  ASSERT_EQ(orchestrator.Run().ExitCode(), 0);

  // Order of `running` records in the journal is the execution order.
  std::vector<std::string> started;
  for (const std::string& line : JournalLines(options.journal_path)) {
    auto record = ParseJson(line);
    ASSERT_TRUE(record.ok());
    if (record->Find("state")->string_value == "running") {
      started.push_back(record->Find("id")->string_value);
    }
  }
  ASSERT_EQ(started.size(), 3u);
  EXPECT_EQ(started[0], "c1");  // priority 5
  EXPECT_EQ(started[1], "c2");  // priority 2
  EXPECT_EQ(started[2], "c0");  // priority 0
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, StallWatchdogQuarantinesAPermanentlyBlackedOutCampaign) {
  const std::string dir = TempDir("poisonrec_fleet_stall");
  const data::Dataset log = MakeLog();
  FleetPlan plan;
  plan.name = "stall";
  CampaignSpec spec = FastSpec("blackout");
  // Every reward query fails on every attempt, and each retry backoff
  // parks in a long (real) sleep with no heartbeat — the exact failure
  // mode the stall watchdog exists for.
  spec.fault.query_failure_rate = 1.0;
  spec.stall_timeout_seconds = 0.05;
  spec.max_restarts = 1;
  spec.retry_attempts = 4;
  plan.campaigns.push_back(spec);
  FleetOptions options = DirOptions(dir);
  options.watchdog_poll_seconds = 0.005;
  options.retry_sleep = [](double) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };
  FleetOrchestrator orchestrator(plan, &log, options);
  const FleetResult result = orchestrator.Run();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ExitCode(), 2);
  EXPECT_EQ(result.quarantined, 1u);
  ASSERT_EQ(result.outcomes.size(), 1u);
  const CampaignOutcome& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.state, CampaignState::kQuarantined);
  // The stall was retried max_restarts times before the quarantine.
  EXPECT_EQ(outcome.restarts, 1u);
  EXPECT_NE(outcome.detail.find("stall"), std::string::npos)
      << outcome.detail;
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, DeadlineWatchdogQuarantinesAnOverdueCampaign) {
  const std::string dir = TempDir("poisonrec_fleet_deadline");
  const data::Dataset log = MakeLog();
  FleetPlan plan;
  plan.name = "deadline";
  CampaignSpec spec = FastSpec("overdue");
  spec.fault.query_failure_rate = 1.0;  // forced into retry sleeps
  spec.deadline_seconds = 0.03;
  spec.max_restarts = 5;
  plan.campaigns.push_back(spec);
  FleetOptions options = DirOptions(dir);
  options.watchdog_poll_seconds = 0.005;
  options.retry_sleep = [](double) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  FleetOrchestrator orchestrator(plan, &log, options);
  const FleetResult result = orchestrator.Run();
  EXPECT_EQ(result.ExitCode(), 2);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].state, CampaignState::kQuarantined);
  EXPECT_EQ(result.outcomes[0].restarts, 0u);
  EXPECT_NE(result.outcomes[0].detail.find("deadline"), std::string::npos)
      << result.outcomes[0].detail;
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, GracefulShutdownThenResumeIsBitIdentical) {
  const data::Dataset log = MakeLog();

  // Reference: the same plan run to completion with no interruption.
  const std::string ref_dir = TempDir("poisonrec_fleet_ref");
  FleetPlan plan = SmallPlan(3, /*steps=*/6);
  FleetOptions ref_options = DirOptions(ref_dir);
  ref_options.max_concurrent = 1;
  FleetOrchestrator reference(plan, &log, ref_options);
  const FleetResult ref_result = reference.Run();
  ASSERT_EQ(ref_result.ExitCode(), 0);

  // Interrupted run: request shutdown shortly after the fleet starts.
  const std::string dir = TempDir("poisonrec_fleet_resume");
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 1;
  FleetOrchestrator interrupted(plan, &log, options);
  std::thread stopper([&interrupted] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    interrupted.RequestShutdown();
  });
  const FleetResult first = interrupted.Run();
  stopper.join();
  ASSERT_TRUE(first.status.ok()) << first.status;

  // Resume until the whole fleet is done (one resume normally suffices;
  // the loop keeps the test robust to scheduling).
  FleetResult final_result = first;
  for (int round = 0; round < 5 && final_result.ExitCode() != 0; ++round) {
    FleetOrchestrator resumed(plan, &log, options);
    final_result = resumed.Run();
    ASSERT_TRUE(final_result.status.ok()) << final_result.status;
  }
  ASSERT_EQ(final_result.ExitCode(), 0);
  EXPECT_EQ(final_result.done, 3u);

  // Bit-identical recovery: every campaign's committed per-step rewards
  // (pre-shutdown steps merged from the journal + post-resume steps)
  // match the uninterrupted reference exactly.
  ASSERT_EQ(final_result.outcomes.size(), ref_result.outcomes.size());
  for (std::size_t i = 0; i < final_result.outcomes.size(); ++i) {
    const CampaignOutcome& a = ref_result.outcomes[i];
    const CampaignOutcome& b = final_result.outcomes[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(b.steps_completed, 6u);
    ASSERT_EQ(a.step_rewards.size(), b.step_rewards.size()) << a.id;
    for (const auto& [step, reward] : a.step_rewards) {
      ASSERT_TRUE(b.step_rewards.count(step)) << a.id << " step " << step;
      EXPECT_DOUBLE_EQ(reward, b.step_rewards.at(step))
          << a.id << " step " << step;
    }
    EXPECT_DOUBLE_EQ(a.best_reward, b.best_reward) << a.id;
  }
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, SubmittedHighPriorityCampaignPreemptsRunningLowPriority) {
  const std::string dir = TempDir("poisonrec_fleet_preempt");
  const data::Dataset log = MakeLog();
  FleetPlan plan;
  plan.name = "preempt";
  CampaignSpec low = FastSpec("low");
  low.steps = 16;
  low.priority = 0;
  plan.campaigns.push_back(low);
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 1;
  options.watchdog_poll_seconds = 0.005;
  FleetOrchestrator orchestrator(plan, &log, options);

  // Submit a higher-priority campaign only after `low` has durably
  // committed a step, so the submission provably lands mid-run with
  // every worker busy — the exact preemption trigger.
  Status submitted = Status::InvalidArgument("submitter never ran");
  std::thread submitter([&] {
    for (int i = 0; i < 4000; ++i) {
      auto replay = ReplayFamily(options.journal_path);
      if (replay.ok()) {
        const auto it = replay->find("low");
        if (it != replay->end() && it->second.steps_completed >= 1) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    CampaignSpec high = FastSpec("high", 99);
    high.steps = 2;
    high.priority = 10;
    submitted = orchestrator.Submit(high);
  });
  const FleetResult result = orchestrator.Run();
  submitter.join();
  ASSERT_TRUE(submitted.ok()) << submitted;
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ExitCode(), 0);
  EXPECT_EQ(result.done, 2u);
  EXPECT_GE(result.preemptions, 1u);

  ASSERT_EQ(result.outcomes.size(), 2u);
  const CampaignOutcome* low_out = nullptr;
  const CampaignOutcome* high_out = nullptr;
  for (const CampaignOutcome& outcome : result.outcomes) {
    if (outcome.id == "low") low_out = &outcome;
    if (outcome.id == "high") high_out = &outcome;
  }
  ASSERT_NE(low_out, nullptr);
  ASSERT_NE(high_out, nullptr);
  EXPECT_EQ(high_out->state, CampaignState::kDone);
  EXPECT_EQ(low_out->state, CampaignState::kDone);
  EXPECT_GE(low_out->preemptions, 1u);
  // The victim still completed every step; its pre-preemption rewards
  // were merged from the journal across the re-queue.
  EXPECT_EQ(low_out->steps_completed, 16u);
  EXPECT_EQ(low_out->step_rewards.size(), 16u);

  // Journal sequence: `low` journals `preempted`, and the very next
  // campaign to start running is `high` — the victim's worker hands
  // itself over within one step boundary.
  std::vector<std::pair<std::string, std::string>> events;  // (id, state)
  for (const std::string& line : JournalLines(options.journal_path)) {
    auto record = ParseJson(line);
    ASSERT_TRUE(record.ok()) << line;
    events.emplace_back(record->Find("id")->string_value,
                        record->Find("state")->string_value);
  }
  std::size_t preempted_at = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i] == std::make_pair(std::string("low"),
                                    std::string("preempted"))) {
      preempted_at = i;
      break;
    }
  }
  ASSERT_LT(preempted_at, events.size()) << "no preempted record in journal";
  std::string next_running;
  for (std::size_t i = preempted_at + 1; i < events.size(); ++i) {
    if (events[i].second == "running") {
      next_running = events[i].first;
      break;
    }
  }
  EXPECT_EQ(next_running, "high");
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, SubmitDirIngestsCampaignFilesDuringTheRun) {
  const std::string dir = TempDir("poisonrec_fleet_submitdir");
  const std::string inbox = dir + "/inbox";
  std::filesystem::create_directories(inbox);
  {
    std::ofstream out(inbox + "/extra.json");
    out << R"({"id":"extra","steps":2,"samples_per_step":4,"attackers":5,)"
        << R"("trajectory_length":5,"targets":2,"embedding_dim":8,)"
        << R"("eval_users":48,"seed":9})";
  }
  {
    // Rejected with a warning, must not sink the fleet.
    std::ofstream out(inbox + "/broken.json");
    out << "{not a campaign";
  }
  {
    // Parses, but its failure rate is not a probability: rejected at the
    // door rather than aborting the worker that would run it.
    std::ofstream out(inbox + "/badrate.json");
    out << R"({"id":"badrate","fault":{"failure":1.5}})";
  }
  const data::Dataset log = MakeLog();
  const FleetPlan plan = SmallPlan(1, /*steps=*/10);
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 1;
  options.watchdog_poll_seconds = 0.005;
  options.submit_dir = inbox;
  FleetOrchestrator orchestrator(plan, &log, options);
  const FleetResult result = orchestrator.Run();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ExitCode(), 0);
  EXPECT_EQ(result.done, 2u);
  bool extra_done = false;
  for (const CampaignOutcome& outcome : result.outcomes) {
    if (outcome.id == "extra") {
      extra_done = outcome.state == CampaignState::kDone;
    }
  }
  EXPECT_TRUE(extra_done) << "submitted campaign was not ingested and run";
  for (const CampaignOutcome& outcome : result.outcomes) {
    EXPECT_NE(outcome.id, "badrate") << "an invalid submission was scheduled";
  }
  std::filesystem::remove_all(dir);
}

// A campaign file caught half-written parses as cut-off JSON; the
// watchdog must read it again on later polls and run it once it is
// complete, rather than reject it for good.
TEST(FleetTest, SubmissionCaughtMidWriteIsIngestedWhenComplete) {
  const std::string dir = TempDir("poisonrec_fleet_midwrite");
  const std::string inbox = dir + "/inbox";
  std::filesystem::create_directories(inbox);
  const data::Dataset log = MakeLog();
  // Far more steps than the test waits for: the fleet is still running
  // when the file is complete, and is shut down once "late" is done. Its
  // one worker runs "late" by preemption, at its higher priority.
  const FleetPlan plan = SmallPlan(1, /*steps=*/100000);
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 1;
  options.watchdog_poll_seconds = 0.005;
  options.submit_dir = inbox;
  FleetOrchestrator orchestrator(plan, &log, options);
  FleetResult result;
  std::thread runner([&] { result = orchestrator.Run(); });
  const std::string spec =
      R"({"id":"late","priority":10,"steps":2,"samples_per_step":4,)"
      R"("attackers":5,"trajectory_length":5,"targets":2,)"
      R"("embedding_dim":8,"eval_users":48,"seed":9})";
  std::thread writer([&] {
    std::ofstream out(inbox + "/late.json");
    out << spec.substr(0, spec.size() / 2) << std::flush;
    // About 20 watchdog polls read the half-written file.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    out << spec.substr(spec.size() / 2) << std::flush;
  });
  writer.join();
  bool late_done = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!late_done && std::chrono::steady_clock::now() < deadline) {
    if (auto replay = ReplayFamily(options.journal_path); replay.ok()) {
      const auto late = replay->find("late");
      late_done = late != replay->end() &&
                  late->second.state == CampaignState::kDone;
    }
    if (!late_done) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  orchestrator.RequestShutdown();
  runner.join();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(late_done) << "the completed submission never ran";
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, ShutdownDoesNotWaitOutAnHourLongWatchdogPoll) {
  const std::string dir = TempDir("poisonrec_fleet_watchdog_cv");
  const data::Dataset log = MakeLog();
  FleetOptions options = DirOptions(dir);
  options.max_concurrent = 1;
  // With the old fixed-sleep watchdog loop this poll period would pin
  // Run for an hour after shutdown; the condition-variable wait must
  // return within the campaign's next step boundary instead.
  options.watchdog_poll_seconds = 3600.0;
  // Enough steps that the shutdown request lands mid-run: a fleet that
  // finishes first interrupts nothing.
  FleetOrchestrator orchestrator(SmallPlan(2, /*steps=*/64), &log, options);
  const auto start = std::chrono::steady_clock::now();
  std::thread stopper([&orchestrator] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    orchestrator.RequestShutdown();
  });
  const FleetResult result = orchestrator.Run();
  stopper.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_LT(elapsed, 60.0);
  EXPECT_GE(result.interrupted, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace poisonrec::orch
