// Storage-integrity chaos tests: sweep deterministic single-fault
// schedules (util/fsio.h FaultyFs) over a small fleet run and check the
// recovery contract end to end:
//
//   1. Every fsio fault class injected into the checkpoint directory —
//      ENOSPC, EIO, short write, fsync failure, torn rename, bit flip —
//      whether it lands on a lease, a status snapshot or a campaign
//      checkpoint, is either survived transparently (retry loops,
//      bounded restarts, seizing a damaged lease after a TTL) or
//      surfaces as a classified failure; after the run, `fsck` audits
//      the state directory and a rerun reproduces the fault-free
//      reference bit-identically.
//   2. Offline corruption of the resume frontier (bit rot, torn
//      publish) is detected by fsck, quarantined by the resuming
//      supervisor into `<ckpt-dir>/corrupt/`, and recovered — from an
//      older token-suffixed epoch when one exists, from scratch
//      otherwise — with bit-identical final rewards either way.
//   3. Faults on the journal's O_APPEND path drop or tear whole
//      records; replay counts and skips the damage instead of trusting
//      it, and fsck flags interior corruption as unrepairable.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ppo.h"
#include "data/synthetic.h"
#include "orch/fleet.h"
#include "orch/fsck.h"
#include "orch/journal.h"
#include "orch/spec.h"
#include "rec/registry.h"
#include "util/fsio.h"

namespace poisonrec::orch {
namespace {

namespace fs = std::filesystem;

data::Dataset MakeLog() {
  data::SyntheticConfig cfg;
  cfg.num_users = 150;
  cfg.num_items = 110;
  cfg.num_interactions = 1800;
  cfg.seed = 5;
  return data::GenerateSynthetic(cfg);
}

FleetPlan OnePlan(std::size_t steps) {
  FleetPlan plan;
  plan.name = "chaos";
  CampaignSpec spec;
  spec.id = "c0";
  spec.steps = steps;
  spec.samples_per_step = 4;
  spec.attackers = 8;
  spec.trajectory_length = 10;
  spec.num_target_items = 4;
  spec.embedding_dim = 8;
  spec.max_eval_users = 96;
  spec.seed = 77;
  plan.campaigns.push_back(std::move(spec));
  return plan;
}

FleetOptions DirOptions(const std::string& dir) {
  FleetOptions options;
  options.journal_path = dir + "/journal.jsonl";
  options.checkpoint_dir = dir + "/ckpts";
  options.report_json_path = "";
  options.report_csv_path = "";
  options.max_concurrent = 1;
  // Short: a fault that damages the lease costs one TTL before the
  // fleet seizes it again.
  options.lease_ttl_seconds = 0.2;
  // Restart backoffs must not really sleep: fault-induced restarts are
  // part of the happy path here.
  options.restart_sleep = [](double) {};
  options.retry_sleep = [](double) {};
  return options;
}

FsckOptions FsckFor(const FleetOptions& options) {
  FsckOptions fsck;
  fsck.journal_path = options.journal_path;
  fsck.checkpoint_dir = options.checkpoint_dir;
  return fsck;
}

/// Disarms the process-wide fault shim even when an ASSERT bails out.
struct DisarmGuard {
  ~DisarmGuard() { FaultyFs::Instance().Disarm(); }
};

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

FleetResult RunFleet(const FleetPlan& plan, const data::Dataset& log,
                     const FleetOptions& options) {
  FleetOrchestrator orchestrator(plan, &log, options);
  return orchestrator.Run();
}

/// Runs the fleet until `min_steps` are durably committed, then
/// soft-stops it (checkpointed, resumable).
FleetResult RunInterrupted(const FleetPlan& plan, const data::Dataset& log,
                           const FleetOptions& options,
                           std::uint64_t min_steps) {
  FleetOrchestrator orchestrator(plan, &log, options);
  FleetResult result;
  std::thread runner([&] { result = orchestrator.Run(); });
  for (int i = 0; i < 4000; ++i) {
    if (CommittedSteps(options.journal_path) >= min_steps) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  orchestrator.RequestShutdown();
  runner.join();
  return result;
}

void FlipMiddleByte(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }
  ASSERT_GT(bytes.size(), 0u) << path;
  bytes[bytes.size() / 2] ^= 0x10;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

void TruncateFile(const std::string& path, std::uint64_t keep_bytes) {
  std::error_code ec;
  fs::resize_file(path, keep_bytes, ec);
  ASSERT_FALSE(ec) << path << ": " << ec.message();
}

/// First artifact whose path ends with `suffix`; nullptr when absent.
const FsckArtifact* FindArtifact(const FsckReport& report,
                                 const std::string& suffix) {
  for (const FsckArtifact& artifact : report.artifacts) {
    if (artifact.path.size() >= suffix.size() &&
        artifact.path.compare(artifact.path.size() - suffix.size(),
                              suffix.size(), suffix) == 0) {
      return &artifact;
    }
  }
  return nullptr;
}

TEST(FsckChaosTest, EveryFsioFaultClassIsSurvivedOrClassified) {
  const auto base = fs::temp_directory_path() / "poisonrec_chaos_sweep";
  fs::remove_all(base);
  const std::string ref_dir = (base / "reference").string();
  fs::create_directories(ref_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = OnePlan(/*steps=*/8);

  const FleetResult reference = RunFleet(plan, log, DirOptions(ref_dir));
  ASSERT_EQ(reference.ExitCode(), 0) << reference.status;

  const FsFaultKind kinds[] = {
      FsFaultKind::kEnospc,    FsFaultKind::kEio,
      FsFaultKind::kShortWrite, FsFaultKind::kFsyncFail,
      FsFaultKind::kTornRename, FsFaultKind::kBitFlip,
  };
  // Anything under the checkpoint dir (early on, that is the status
  // snapshot and the lease writes every run makes), then the campaign's
  // own checkpoint files.
  const std::pair<const char*, const char*> targets[] = {
      {"", "/ckpts/"},
      {"_checkpoint", "/ckpts/c0.t"},
  };
  for (const auto& [dir_suffix, target] : targets) {
    for (const FsFaultKind kind : kinds) {
      SCOPED_TRACE(std::string(FsFaultKindName(kind)) + " on " + target);
      const std::string fault_dir =
          (base / ("fault_" + std::string(FsFaultKindName(kind)) + dir_suffix))
              .string();
      fs::create_directories(fault_dir);
      const FleetOptions options = DirOptions(fault_dir);

      // One fault on the second matching operation of the run,
      // bit-deterministic under the fixed seed.
      DisarmGuard guard;
      FsFaultRule rule;
      rule.kind = kind;
      rule.path_substring = fault_dir + target;
      rule.nth = 2;
      FaultyFs::Instance().Arm(0x5eed0000u + static_cast<std::uint64_t>(kind),
                               {rule});
      const FleetResult faulted = RunFleet(plan, log, options);
      const FsFaultStats stats = FaultyFs::Instance().stats();
      FaultyFs::Instance().Disarm();
      EXPECT_EQ(stats.faults_injected, 1u)
          << "the scheduled fault never fired (writes_seen="
          << stats.writes_seen << ", fsyncs_seen=" << stats.fsyncs_seen
          << ", renames_seen=" << stats.renames_seen << ")";

      // fsck must classify whatever the fault left behind, never crash.
      auto audit = RunFsck(FsckFor(options));
      ASSERT_TRUE(audit.ok()) << audit.status();

      if (faulted.ExitCode() == 0) {
        // Survived (retried, restarted, or benign): a rerun must recover
        // the terminal outcomes bit-identically.
        const FleetResult resumed = RunFleet(plan, log, options);
        ASSERT_EQ(resumed.ExitCode(), 0) << resumed.status;
        ExpectBitIdentical(reference, resumed);
      } else {
        // Not survived: the failure must be classified, not silent.
        ASSERT_EQ(faulted.outcomes.size(), 1u);
        const CampaignOutcome& outcome = faulted.outcomes[0];
        EXPECT_TRUE(outcome.state == CampaignState::kFailed ||
                    outcome.state == CampaignState::kQuarantined)
            << CampaignStateName(outcome.state);
        EXPECT_FALSE(outcome.detail.empty());
      }
    }
  }

  fs::remove_all(base);
}

TEST(FsckChaosTest, CorruptFrontierCheckpointQuarantinedAndRecovered) {
  const auto base = fs::temp_directory_path() / "poisonrec_chaos_bitrot";
  fs::remove_all(base);
  const std::string ref_dir = (base / "reference").string();
  const std::string run_dir = (base / "run").string();
  fs::create_directories(ref_dir);
  fs::create_directories(run_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = OnePlan(/*steps=*/12);
  const FleetResult reference = RunFleet(plan, log, DirOptions(ref_dir));
  ASSERT_EQ(reference.ExitCode(), 0) << reference.status;

  const FleetOptions options = DirOptions(run_dir);
  const FleetResult interrupted =
      RunInterrupted(plan, log, options, /*min_steps=*/3);
  ASSERT_EQ(interrupted.interrupted, 1u)
      << "fleet finished before the shutdown - grow the plan";

  // Bit rot on the resume frontier: structurally the file still starts
  // with a valid header, only the whole-file checksum can tell.
  const std::string checkpoint = run_dir + "/ckpts/c0.t1.ckpt";
  ASSERT_TRUE(fs::exists(checkpoint));
  FlipMiddleByte(checkpoint);

  // fsck: detected, and unrepairable (no sibling epoch to fall back to).
  auto audit = RunFsck(FsckFor(options));
  ASSERT_TRUE(audit.ok()) << audit.status();
  const FsckArtifact* damaged = FindArtifact(*audit, "c0.t1.ckpt");
  ASSERT_NE(damaged, nullptr);
  EXPECT_EQ(damaged->verdict, FsckVerdict::kCorrupt) << damaged->detail;
  EXPECT_FALSE(damaged->repairable);
  EXPECT_EQ(audit->ExitCode(), 1);

  // Rerun: the supervisor quarantines the rotten checkpoint and
  // replays the campaign from scratch — the deterministic sampling
  // streams reproduce the exact same committed rewards.
  const FleetResult resumed = RunFleet(plan, log, options);
  ASSERT_EQ(resumed.ExitCode(), 0) << resumed.status;
  EXPECT_EQ(resumed.checkpoints_quarantined, 1u);
  ASSERT_EQ(resumed.outcomes.size(), 1u);
  EXPECT_EQ(resumed.outcomes[0].checkpoints_quarantined, 1u);
  EXPECT_TRUE(fs::exists(run_dir + "/ckpts/corrupt/c0.t1.ckpt"));
  ExpectBitIdentical(reference, resumed);

  // A final audit is clean: the quarantined file is informational, the
  // rewritten checkpoint and the journal family verify.
  auto after = RunFsck(FsckFor(options));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->ExitCode(), 0) << FormatFsckReport(*after);
  const FsckArtifact* quarantined =
      FindArtifact(*after, "corrupt/c0.t1.ckpt");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->kind, FsckArtifactKind::kQuarantined);
  fs::remove_all(base);
}

TEST(FsckChaosTest, TornFrontierCheckpointDetectedAndRecovered) {
  const auto base = fs::temp_directory_path() / "poisonrec_chaos_torn";
  fs::remove_all(base);
  const std::string ref_dir = (base / "reference").string();
  const std::string run_dir = (base / "run").string();
  fs::create_directories(ref_dir);
  fs::create_directories(run_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = OnePlan(/*steps=*/12);
  const FleetResult reference = RunFleet(plan, log, DirOptions(ref_dir));
  ASSERT_EQ(reference.ExitCode(), 0) << reference.status;

  const FleetOptions options = DirOptions(run_dir);
  const FleetResult interrupted =
      RunInterrupted(plan, log, options, /*min_steps=*/3);
  ASSERT_EQ(interrupted.interrupted, 1u)
      << "fleet finished before the shutdown - grow the plan";

  // A torn publish: the header landed, the integrity footer did not.
  const std::string checkpoint = run_dir + "/ckpts/c0.t1.ckpt";
  ASSERT_TRUE(fs::exists(checkpoint));
  TruncateFile(checkpoint, 16);

  auto audit = RunFsck(FsckFor(options));
  ASSERT_TRUE(audit.ok()) << audit.status();
  const FsckArtifact* damaged = FindArtifact(*audit, "c0.t1.ckpt");
  ASSERT_NE(damaged, nullptr);
  EXPECT_EQ(damaged->verdict, FsckVerdict::kTorn) << damaged->detail;
  EXPECT_EQ(audit->ExitCode(), 1);

  const FleetResult resumed = RunFleet(plan, log, options);
  ASSERT_EQ(resumed.ExitCode(), 0) << resumed.status;
  EXPECT_EQ(resumed.checkpoints_quarantined, 1u);
  EXPECT_TRUE(fs::exists(run_dir + "/ckpts/corrupt/c0.t1.ckpt"));
  ExpectBitIdentical(reference, resumed);
  fs::remove_all(base);
}

TEST(FsckChaosTest, DamagedFrontierFallsBackToOlderTokenCheckpoint) {
  const auto base = fs::temp_directory_path() / "poisonrec_chaos_fallback";
  fs::remove_all(base);
  const std::string ref_dir = (base / "reference").string();
  const std::string run_dir = (base / "run").string();
  fs::create_directories(ref_dir);
  fs::create_directories(run_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = OnePlan(/*steps=*/12);
  const FleetResult reference = RunFleet(plan, log, DirOptions(ref_dir));
  ASSERT_EQ(reference.ExitCode(), 0) << reference.status;

  // Worker A: checkpoints go to the token-suffixed `c0.t1.ckpt`.
  // Interrupt it mid-campaign.
  FleetOptions a_options = DirOptions(run_dir);
  a_options.worker_id = "wA";
  a_options.lease_ttl_seconds = 0.5;
  const FleetResult interrupted =
      RunInterrupted(plan, log, a_options, /*min_steps=*/3);
  ASSERT_EQ(interrupted.interrupted, 1u)
      << "worker A finished before the shutdown - grow the plan";
  const std::string epoch1 = run_dir + "/ckpts/c0.t1.ckpt";
  ASSERT_TRUE(fs::exists(epoch1));

  // Fabricate a rotten next-epoch frontier: a bit-flipped copy above
  // every epoch so far, which the resuming worker will try first.
  const std::string epoch2 = run_dir + "/ckpts/c0.t2.ckpt";
  fs::copy_file(epoch1, epoch2);
  FlipMiddleByte(epoch2);

  // fsck knows this one IS repairable: an intact older epoch exists.
  auto audit = RunFsck(FsckFor(a_options));
  ASSERT_TRUE(audit.ok()) << audit.status();
  const FsckArtifact* damaged = FindArtifact(*audit, "c0.t2.ckpt");
  ASSERT_NE(damaged, nullptr);
  EXPECT_EQ(damaged->verdict, FsckVerdict::kCorrupt) << damaged->detail;
  EXPECT_TRUE(damaged->repairable) << damaged->detail;
  EXPECT_EQ(audit->ExitCode(), 2) << FormatFsckReport(*audit);

  // Worker B acquires a token above both epochs (3: the floor counts
  // checkpoint names), tries c0.t2.ckpt first, quarantines it, and
  // falls back to worker A's intact epoch-1 checkpoint instead of
  // replaying the campaign from scratch.
  FleetOptions b_options = DirOptions(run_dir);
  b_options.worker_id = "wB";
  b_options.lease_ttl_seconds = 0.5;
  const FleetResult resumed = RunFleet(plan, log, b_options);
  ASSERT_EQ(resumed.ExitCode(), 0) << resumed.status;
  EXPECT_EQ(resumed.checkpoints_quarantined, 1u);
  EXPECT_TRUE(fs::exists(run_dir + "/ckpts/corrupt/c0.t2.ckpt"));
  ExpectBitIdentical(reference, resumed);
  fs::remove_all(base);
}

TEST(FsckChaosTest, JournalAppendDropLeavesFamilyStructurallyIntact) {
  const auto base = fs::temp_directory_path() / "poisonrec_chaos_jdrop";
  fs::remove_all(base);
  const std::string run_dir = (base / "run").string();
  fs::create_directories(run_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = OnePlan(/*steps=*/8);
  const FleetOptions options = DirOptions(run_dir);

  // EIO on the third journal append: the O_APPEND single-write contract
  // means the record is dropped WHOLE — the family never tears
  // mid-line from a failed write.
  DisarmGuard guard;
  FsFaultRule rule;
  rule.kind = FsFaultKind::kEio;
  rule.path_substring = run_dir + "/journal";
  rule.nth = 3;
  FaultyFs::Instance().Arm(0xd407, {rule});
  const FleetResult faulted = RunFleet(plan, log, options);
  const FsFaultStats stats = FaultyFs::Instance().stats();
  FaultyFs::Instance().Disarm();
  ASSERT_EQ(stats.faults_injected, 1u)
      << "appends_seen=" << stats.appends_seen;
  EXPECT_EQ(faulted.ExitCode(), 0) << faulted.status;

  // The surviving lines all verify: no interior corruption, no torn
  // tail, just one missing record.
  auto replay =
      FleetJournal::Replay(FleetJournal::ListJournalFiles(options.journal_path));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->malformed_lines, 0u);
  EXPECT_EQ(replay->corrupt_lines, 0u);
  auto audit = RunFsck(FsckFor(options));
  ASSERT_TRUE(audit.ok()) << audit.status();
  EXPECT_EQ(audit->ExitCode(), 0) << FormatFsckReport(*audit);
  fs::remove_all(base);
}

TEST(FsckChaosTest, JournalShortWriteTearsInteriorRecordWhichIsCounted) {
  const auto base = fs::temp_directory_path() / "poisonrec_chaos_jtear";
  fs::remove_all(base);
  const std::string run_dir = (base / "run").string();
  fs::create_directories(run_dir);

  const data::Dataset log = MakeLog();
  const FleetPlan plan = OnePlan(/*steps=*/8);
  const FleetOptions options = DirOptions(run_dir);

  // A short append tears record 3 mid-line; the next append glues onto
  // the torn prefix, producing one interior line whose checksum cannot
  // verify.
  DisarmGuard guard;
  FsFaultRule rule;
  rule.kind = FsFaultKind::kShortWrite;
  rule.path_substring = run_dir + "/journal";
  rule.nth = 3;
  FaultyFs::Instance().Arm(0x7ea8, {rule});
  const FleetResult faulted = RunFleet(plan, log, options);
  const FsFaultStats stats = FaultyFs::Instance().stats();
  FaultyFs::Instance().Disarm();
  ASSERT_EQ(stats.faults_injected, 1u)
      << "appends_seen=" << stats.appends_seen;
  // The live run is unaffected (outcomes are in-memory) ...
  EXPECT_EQ(faulted.ExitCode(), 0) << faulted.status;

  // ... but the torn interior record is real damage: counted by replay,
  // flagged unrepairable by fsck.
  auto replay =
      FleetJournal::Replay(FleetJournal::ListJournalFiles(options.journal_path));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_GE(replay->corrupt_lines + replay->malformed_lines, 1u);
  auto audit = RunFsck(FsckFor(options));
  ASSERT_TRUE(audit.ok()) << audit.status();
  // The worker's file of the journal family, journal.<worker>.jsonl.
  const FsckArtifact* journal = FindArtifact(*audit, ".jsonl");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->verdict, FsckVerdict::kCorrupt) << journal->detail;
  EXPECT_FALSE(journal->repairable);
  EXPECT_EQ(audit->ExitCode(), 1);

  // A rerun still completes — the campaign's terminal state survived —
  // and the fleet report surfaces the corruption counters instead of
  // pretending the journal was clean.
  const FleetResult resumed = RunFleet(plan, log, options);
  ASSERT_EQ(resumed.ExitCode(), 0) << resumed.status;
  EXPECT_GE(resumed.journal.corrupt_lines + resumed.journal.malformed_lines,
            1u);
  fs::remove_all(base);
}

// fsck and LoadCheckpoint read one checkpoint frame: for every kind of
// damage, the verdict fsck prints and the code the resuming supervisor
// acts on must agree (torn is lost state, kDataLoss; corrupt is lost
// state or a foreign file, kDataLoss or kInvalidArgument).
TEST(FsckChaosTest, FsckVerdictAgreesWithLoadCheckpointOnDamagedCopies) {
  const fs::path dir = fs::temp_directory_path() / "poisonrec_frame_agree";
  fs::remove_all(dir);
  fs::create_directories(dir);
  env::EnvironmentConfig env_cfg;
  env_cfg.num_attackers = 4;
  env_cfg.trajectory_length = 6;
  env_cfg.num_target_items = 3;
  env_cfg.num_candidate_originals = 20;
  const env::AttackEnvironment environment(
      MakeLog(), rec::MakeRecommender("ItemPop").value(), env_cfg);
  core::PoisonRecConfig cfg;
  cfg.samples_per_step = 4;
  cfg.batch_size = 4;
  cfg.policy.embedding_dim = 8;
  core::PoisonRecAttacker attacker(&environment, cfg);
  attacker.TrainStep();
  const std::string original = (dir / "saved.ckpt").string();
  ASSERT_TRUE(attacker.SaveCheckpoint(original).ok());
  StatusOr<std::string> file = ReadFileBytes(original);
  ASSERT_TRUE(file.ok());
  StatusOr<std::string> payload = ReadFileVerified(original);
  ASSERT_TRUE(payload.ok());
  const std::size_t size = file->size();

  const auto flipped = [&](std::size_t at) {
    std::string bytes = *file;
    bytes[at] ^= 0x01;
    return bytes;
  };
  std::string version3 = *payload;
  version3[4] = 3;
  struct Case {
    const char* name;
    std::string bytes;
    FsckVerdict verdict;
  };
  const Case cases[] = {
      {"intact", *file, FsckVerdict::kOk},
      {"empty", "", FsckVerdict::kTorn},
      {"four_bytes", file->substr(0, 4), FsckVerdict::kTorn},
      {"mid_payload", file->substr(0, size / 2), FsckVerdict::kTorn},
      {"payload_bit", flipped(size / 2), FsckVerdict::kCorrupt},
      {"footer_crc_bit", flipped(size - 1), FsckVerdict::kCorrupt},
      {"magic", flipped(0), FsckVerdict::kCorrupt},
      {"version3", WithIntegrityFooter(version3), FsckVerdict::kCorrupt},
  };
  for (const Case& c : cases) {
    const std::string path = (dir / (std::string(c.name) + ".ckpt")).string();
    ASSERT_TRUE(WriteFileDurable(path, c.bytes).ok()) << c.name;
  }
  fs::remove(original);

  FsckOptions options;
  options.checkpoint_dir = dir.string();
  auto audit = RunFsck(options);
  ASSERT_TRUE(audit.ok());
  for (const Case& c : cases) {
    const FsckArtifact* artifact =
        FindArtifact(*audit, "/" + std::string(c.name) + ".ckpt");
    ASSERT_NE(artifact, nullptr) << c.name;
    EXPECT_EQ(artifact->verdict, c.verdict)
        << c.name << ": " << FsckVerdictName(artifact->verdict) << " ("
        << artifact->detail << ")";

    core::PoisonRecAttacker loader(&environment, cfg);
    const StatusCode code = loader.LoadCheckpoint(artifact->path).code();
    switch (artifact->verdict) {
      case FsckVerdict::kOk:
        EXPECT_EQ(code, StatusCode::kOk) << c.name;
        break;
      case FsckVerdict::kTorn:
        EXPECT_EQ(code, StatusCode::kDataLoss) << c.name;
        break;
      case FsckVerdict::kCorrupt:
        EXPECT_TRUE(code == StatusCode::kDataLoss ||
                    code == StatusCode::kInvalidArgument)
            << c.name << ": " << StatusCodeToString(code);
        break;
      default:
        ADD_FAILURE() << c.name << ": unexpected verdict "
                      << FsckVerdictName(artifact->verdict);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace poisonrec::orch
