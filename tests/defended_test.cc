// Adaptive-defender tests: the DefendedEnvironment's sweep/ban/filter
// semantics, determinism through the full decorator stack
// (DefendedEnvironment over FaultyEnvironment), defender-state
// serialization, and the end-to-end acceptance campaign — a pool-less
// attacker collapses under permanent bans while a pooled attacker
// sustains most of the undefended damage, bit-identically across runs
// and across a crash + checkpoint resume. A golden digest pins the bytes
// of a pooled, defended campaign's checkpoint and defender state.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "core/ppo.h"
#include "data/synthetic.h"
#include "defense/detector.h"
#include "env/defended.h"
#include "env/fault.h"
#include "nn/kernels.h"
#include "rec/registry.h"
#include "util/fsio.h"

namespace poisonrec::core {
namespace {

const SleepFn kNoSleep = [](double) {};

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct Fixture {
  explicit Fixture(std::size_t num_attackers = 4)
      : environment(MakeLog(), rec::MakeRecommender("ItemPop").value(),
                    MakeEnvConfig(num_attackers)) {}

  static data::Dataset MakeLog() {
    data::SyntheticConfig cfg;
    cfg.num_users = 80;
    cfg.num_items = 60;
    cfg.num_interactions = 800;
    cfg.seed = 3;
    return data::GenerateSynthetic(cfg);
  }

  static env::EnvironmentConfig MakeEnvConfig(std::size_t num_attackers) {
    env::EnvironmentConfig cfg;
    cfg.num_attackers = num_attackers;
    cfg.trajectory_length = 6;
    cfg.num_target_items = 3;
    cfg.num_candidate_originals = 20;
    cfg.top_k = 5;
    cfg.seed = 11;
    return cfg;
  }

  static PoisonRecConfig MakeAttackerConfig() {
    PoisonRecConfig cfg;
    cfg.samples_per_step = 6;
    cfg.batch_size = 6;
    cfg.update_epochs = 2;
    cfg.policy.embedding_dim = 8;
    cfg.seed = 7;
    return cfg;
  }

  env::AttackEnvironment environment;
};

/// Repetitive session: maximally suspicious to ClickEntropyDetector.
env::Trajectory Repetitive(std::size_t attacker, std::size_t length = 6) {
  env::Trajectory t;
  t.attacker_index = attacker;
  t.items.assign(length, 0);
  return t;
}

/// All-distinct session: entropy score exactly 0 (never a ban candidate).
env::Trajectory Diverse(std::size_t attacker, std::size_t length = 6) {
  env::Trajectory t;
  t.attacker_index = attacker;
  for (std::size_t i = 0; i < length; ++i) t.items.push_back(1 + i);
  return t;
}

env::DefenseProfile EntropyProfile(std::size_t interval, std::size_t bans) {
  env::DefenseProfile profile;
  profile.detection_interval = interval;
  profile.bans_per_sweep = bans;
  return profile;
}

TEST(DefendedEnvironmentTest, NoSweepBeforeTheFirstIntervalBoundary) {
  Fixture f;
  env::DefendedEnvironment platform(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(/*interval=*/10, /*bans=*/1));
  for (std::uint64_t q = 0; q < 10; ++q) {
    ASSERT_TRUE(platform.TryEvaluate({Repetitive(0)}, q).ok());
  }
  EXPECT_EQ(platform.stats().sweeps, 0u);
  EXPECT_TRUE(platform.BannedAccounts().empty());

  // Query 10 crosses the boundary: the sweep audits the accumulated
  // history and bans the (only) suspicious account.
  ASSERT_TRUE(platform.TryEvaluate({Repetitive(0)}, 10).ok());
  EXPECT_EQ(platform.stats().sweeps, 1u);
  EXPECT_EQ(platform.BannedAccounts(), std::vector<std::size_t>{0});
}

// The campaign runners always stack the defender over a fault layer. A
// zero FaultProfile must leave the rewards, the ban sequence and the
// defender state exactly as over the bare environment.
TEST(DefendedEnvironmentTest, ZeroProfileFaultLayerLeavesBansAndState) {
  Fixture f;
  const env::FaultyEnvironment zero(&f.environment, env::FaultProfile());
  env::DefendedEnvironment over_bare(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(/*interval=*/4, /*bans=*/1));
  env::DefendedEnvironment over_zero(
      &zero, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(/*interval=*/4, /*bans=*/1));
  const std::vector<env::Trajectory> fleet = {Repetitive(0), Repetitive(1),
                                              Diverse(2), Diverse(3)};
  for (std::uint64_t q = 0; q < 16; ++q) {
    const StatusOr<double> a = over_bare.TryEvaluate(fleet, q);
    const StatusOr<double> b = over_zero.TryEvaluate(fleet, q);
    ASSERT_TRUE(a.ok() && b.ok()) << "query " << q;
    EXPECT_EQ(*a, *b) << "query " << q;
  }

  const std::vector<env::BanEvent> bare_bans = over_bare.ban_events();
  const std::vector<env::BanEvent> zero_bans = over_zero.ban_events();
  ASSERT_FALSE(bare_bans.empty());
  ASSERT_EQ(zero_bans.size(), bare_bans.size());
  for (std::size_t i = 0; i < bare_bans.size(); ++i) {
    EXPECT_EQ(zero_bans[i].query_id, bare_bans[i].query_id);
    EXPECT_EQ(zero_bans[i].attacker_index, bare_bans[i].attacker_index);
    EXPECT_EQ(zero_bans[i].user_id, bare_bans[i].user_id);
    EXPECT_EQ(zero_bans[i].suspicion, bare_bans[i].suspicion);
  }
  EXPECT_TRUE(over_zero.SerializeState() == over_bare.SerializeState());
}

TEST(DefendedEnvironmentTest, SweepBansTopSuspicionWithAccountTieBreak) {
  Fixture f;
  env::DefendedEnvironment platform(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(/*interval=*/4, /*bans=*/1));
  // Accounts 0 and 1 click repetitively (entropy score 1.0, tied);
  // accounts 2 and 3 click all-distinct items (score 0: no candidate).
  const std::vector<env::Trajectory> fleet = {Repetitive(0), Repetitive(1),
                                              Diverse(2), Diverse(3)};
  for (std::uint64_t q = 0; q < 4; ++q) {
    ASSERT_TRUE(platform.TryEvaluate(fleet, q).ok());
  }
  ASSERT_TRUE(platform.TryEvaluate(fleet, 4).ok());  // triggers the sweep

  // Tie at suspicion 1.0 breaks toward the lower account index.
  EXPECT_EQ(platform.BannedAccounts(), std::vector<std::size_t>{0});
  const std::vector<env::BanEvent> events = platform.ban_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].query_id, 4u);
  EXPECT_EQ(events[0].attacker_index, 0u);
  EXPECT_EQ(events[0].user_id, f.environment.AttackerUserId(0));
  EXPECT_GT(events[0].suspicion, 0.0);
}

TEST(DefendedEnvironmentTest, BannedSubmissionsAreFilteredFromTheReward) {
  Fixture f;
  env::DefendedEnvironment platform(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(/*interval=*/2, /*bans=*/1));
  ASSERT_TRUE(platform.TryEvaluate({Repetitive(0)}, 0).ok());
  ASSERT_TRUE(platform.TryEvaluate({Repetitive(0)}, 2).ok());  // sweep: ban 0
  ASSERT_EQ(platform.BannedAccounts(), std::vector<std::size_t>{0});

  // A banned account's clicks never reach the poison log: the defended
  // reward equals the clean environment's reward for the survivors only.
  const auto filtered = platform.TryEvaluate({Repetitive(0), Diverse(3)}, 3);
  ASSERT_TRUE(filtered.ok());
  EXPECT_DOUBLE_EQ(*filtered, f.environment.Evaluate({Diverse(3)}));
  EXPECT_EQ(platform.stats().filtered_trajectories, 2u);
}

TEST(DefendedEnvironmentTest, RetryAttemptsDoNotDoubleCountHistory) {
  Fixture f;
  env::DefendedEnvironment platform(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(/*interval=*/100, /*bans=*/1));
  ASSERT_TRUE(platform.TryEvaluate({Diverse(2)}, 0, /*attempt=*/0).ok());
  const std::uint64_t once = platform.stats().recorded_clicks;
  EXPECT_EQ(once, 6u);
  // A retry of the same query id lands no additional history.
  ASSERT_TRUE(platform.TryEvaluate({Diverse(2)}, 0, /*attempt=*/1).ok());
  EXPECT_EQ(platform.stats().recorded_clicks, once);
  // A new query id does.
  ASSERT_TRUE(platform.TryEvaluate({Diverse(2)}, 1).ok());
  EXPECT_EQ(platform.stats().recorded_clicks, 2 * once);
}

TEST(DefendedEnvironmentTest, ObserverAndLenientModesNeverBan) {
  Fixture f;
  // bans_per_sweep = 0: pure observer.
  env::DefendedEnvironment observer(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(/*interval=*/2, /*bans=*/0));
  // ban_probability = 0: candidates are flagged but never executed.
  env::DefenseProfile lenient = EntropyProfile(2, 2);
  lenient.ban_probability = 0.0;
  env::DefendedEnvironment merciful(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      lenient);
  for (std::uint64_t q = 0; q <= 6; ++q) {
    ASSERT_TRUE(observer.TryEvaluate({Repetitive(0)}, q).ok());
    ASSERT_TRUE(merciful.TryEvaluate({Repetitive(0)}, q).ok());
  }
  EXPECT_GE(observer.stats().sweeps, 3u);
  EXPECT_TRUE(observer.BannedAccounts().empty());
  EXPECT_GE(merciful.stats().sweeps, 3u);
  EXPECT_TRUE(merciful.BannedAccounts().empty());
}

// Satellite: decorator stacking. The defended layer over the faulty layer
// must stay deterministic end to end — same seeds, same query/attempt
// ids, same rewards, same ban sequence.
TEST(DefendedEnvironmentTest, StackOverFaultyEnvironmentIsDeterministic) {
  env::FaultProfile faults;
  faults.query_failure_rate = 0.3;
  faults.injection_drop_rate = 0.1;
  faults.shadow_ban_rate = 0.1;
  faults.reward_noise_stddev = 0.5;
  faults.seed = 17;

  auto run = [&faults]() {
    Fixture f;
    env::FaultyEnvironment faulty(&f.environment, faults);
    env::DefendedEnvironment platform(
        &faulty, defense::MakeDefaultEnsemble(), EntropyProfile(4, 1));
    std::vector<double> rewards;
    for (std::uint64_t q = 0; q < 16; ++q) {
      const std::vector<env::Trajectory> fleet = {
          Repetitive(0), Repetitive(1), Diverse(2), Diverse(3)};
      // Retry transient faults with explicit attempt ids, like the driver.
      for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
        const auto result = platform.TryEvaluate(fleet, q, attempt);
        if (result.ok()) {
          rewards.push_back(*result);
          break;
        }
      }
    }
    return std::make_pair(rewards, platform.ban_events());
  };

  const auto [rewards_a, events_a] = run();
  const auto [rewards_b, events_b] = run();
  ASSERT_EQ(rewards_a.size(), rewards_b.size());
  for (std::size_t i = 0; i < rewards_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(rewards_a[i], rewards_b[i]) << "query " << i;
  }
  ASSERT_EQ(events_a.size(), events_b.size());
  ASSERT_FALSE(events_a.empty());  // the defender actually acted
  for (std::size_t i = 0; i < events_a.size(); ++i) {
    EXPECT_EQ(events_a[i].query_id, events_b[i].query_id);
    EXPECT_EQ(events_a[i].attacker_index, events_b[i].attacker_index);
    EXPECT_DOUBLE_EQ(events_a[i].suspicion, events_b[i].suspicion);
  }
}

TEST(DefendedEnvironmentTest, SerializeRestoreRoundTripsAndContinues) {
  Fixture f;
  env::DefendedEnvironment original(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(3, 1));
  const std::vector<env::Trajectory> fleet = {Repetitive(0), Repetitive(1),
                                              Diverse(2)};
  for (std::uint64_t q = 0; q < 5; ++q) {
    ASSERT_TRUE(original.TryEvaluate(fleet, q).ok());
  }
  ASSERT_FALSE(original.BannedAccounts().empty());
  const std::string blob = original.SerializeState();

  env::DefendedEnvironment restored(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(3, 1));
  ASSERT_TRUE(restored.RestoreState(blob).ok());
  EXPECT_EQ(restored.BannedAccounts(), original.BannedAccounts());
  EXPECT_EQ(restored.ban_events().size(), original.ban_events().size());
  EXPECT_EQ(restored.stats().recorded_clicks,
            original.stats().recorded_clicks);
  EXPECT_EQ(restored.stats().bans, original.stats().bans);

  // Both continue identically: same future sweeps, same future bans.
  for (std::uint64_t q = 5; q < 12; ++q) {
    const auto a = original.TryEvaluate(fleet, q);
    const auto b = restored.TryEvaluate(fleet, q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(*a, *b) << "query " << q;
  }
  EXPECT_EQ(original.BannedAccounts(), restored.BannedAccounts());
}

TEST(DefendedEnvironmentTest, RestoreRejectsGarbageAndWrongShape) {
  Fixture f;
  env::DefendedEnvironment platform(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(3, 1));
  EXPECT_EQ(platform.RestoreState("definitely not a blob").code(),
            StatusCode::kInvalidArgument);

  // A blob serialized for a different account count is rejected.
  Fixture bigger(/*num_attackers=*/7);
  env::DefendedEnvironment other(
      &bigger.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(3, 1));
  EXPECT_EQ(platform.RestoreState(other.SerializeState()).code(),
            StatusCode::kInvalidArgument);

  // A truncated blob is rejected and leaves the defender unchanged.
  ASSERT_TRUE(platform.TryEvaluate({Diverse(2)}, 0).ok());
  const std::string blob = platform.SerializeState();
  EXPECT_EQ(platform.RestoreState(blob.substr(0, blob.size() / 2)).code(),
            StatusCode::kIoError);
  EXPECT_EQ(platform.stats().recorded_clicks, 6u);
}

std::uint64_t U64At(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

std::string WithU64At(std::string bytes, std::size_t offset,
                      std::uint64_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
  return bytes;
}

constexpr std::uint64_t kHuge = (1ull << 63) - 16;

TEST(DefendedEnvironmentTest, OversizedCountIsTruncationNotAnException) {
  Fixture f;
  env::DefendedEnvironment original(
      &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
      EntropyProfile(3, 1));
  const std::vector<env::Trajectory> fleet = {Repetitive(0), Repetitive(1),
                                              Diverse(2)};
  for (std::uint64_t q = 0; q < 5; ++q) {
    ASSERT_TRUE(original.TryEvaluate(fleet, q).ok());
  }
  const std::string blob = original.SerializeState();

  // Walk the PRDF layout (env/defended.cc) to each count field.
  const std::uint64_t accounts = U64At(blob, 8);
  const std::size_t history_at = 16;
  std::size_t offset = history_at;
  for (std::uint64_t a = 0; a < accounts; ++a) {
    offset += 8 + U64At(blob, offset) * 8;
  }
  offset += accounts;  // ban flags
  const std::size_t events_at = offset;
  ASSERT_GT(U64At(blob, events_at), 0u);
  offset += 8 + U64At(blob, events_at) * 32;
  const std::size_t recorded_at = offset;
  ASSERT_EQ(U64At(blob, recorded_at), 5u);

  const std::pair<const char*, std::size_t> fields[] = {
      {"history", history_at}, {"events", events_at},
      {"recorded queries", recorded_at}};
  for (const auto& [name, at] : fields) {
    env::DefendedEnvironment platform(
        &f.environment, std::make_unique<defense::ClickEntropyDetector>(),
        EntropyProfile(3, 1));
    ASSERT_TRUE(platform.TryEvaluate({Diverse(2)}, 0).ok());
    Status status;
    EXPECT_NO_THROW(status = platform.RestoreState(WithU64At(blob, at, kHuge)))
        << name;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << name;
    EXPECT_EQ(status.message(), "truncated defender state") << name;
    EXPECT_EQ(platform.stats().recorded_clicks, 6u) << name;
    EXPECT_TRUE(platform.BannedAccounts().empty()) << name;
  }
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: the defended campaign.
// ---------------------------------------------------------------------------

struct CampaignFixture {
  explicit CampaignFixture(std::size_t reserve)
      : environment(Fixture::MakeLog(),
                    rec::MakeRecommender("ItemPop").value(),
                    Fixture::MakeEnvConfig(6 + reserve)) {}

  env::AttackEnvironment environment;
};

env::DefenseProfile AggressiveProfile(const PoisonRecConfig& cfg) {
  env::DefenseProfile defense;
  // One sweep per training step, one ban per sweep: the 6-account fleet
  // is gone within 6 steps unless the pool replaces it.
  defense.detection_interval = cfg.samples_per_step;
  defense.bans_per_sweep = 1;
  return defense;
}

TEST(DefendedCampaignTest, PoolLessCollapsesWhilePooledSustains) {
  const std::size_t kSteps = 15;
  const auto cfg = Fixture::MakeAttackerConfig();

  // Undefended reference.
  CampaignFixture undefended(0);
  PoisonRecAttacker reference(&undefended.environment, cfg);
  reference.Train(kSteps);
  const double undefended_recnum =
      undefended.environment.Evaluate(reference.BestAttack());
  ASSERT_GT(undefended_recnum, 0.0);

  // Pool-less defended campaign: bans shrink the fleet for good.
  CampaignFixture poolless_fixture(0);
  env::FaultyEnvironment poolless_faulty(&poolless_fixture.environment, {});
  env::DefendedEnvironment poolless_platform(
      &poolless_faulty, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
  PoisonRecAttacker poolless(&poolless_fixture.environment, cfg);
  poolless.AttachPlatform(&poolless_platform, &poolless_platform, kNoSleep);
  const auto poolless_stats = poolless.Train(kSteps);

  ASSERT_EQ(poolless_stats.size(), kSteps);  // degrades, never aborts
  EXPECT_TRUE(poolless.campaign_status().ok());
  const std::size_t banned = poolless_stats.back().banned_accounts;
  EXPECT_GE(banned, 3u) << "defender banned fewer than half the fleet";
  EXPECT_LE(poolless_stats.back().effective_attackers, 3u);

  // RecNum collapse: what the surviving fleet can still deliver through
  // the platform's ban filter is a fraction of the undefended attack.
  const std::vector<std::size_t> bans = poolless_platform.BannedAccounts();
  std::vector<env::Trajectory> delivered;
  for (const env::Trajectory& t : poolless.BestAttack()) {
    if (!std::binary_search(bans.begin(), bans.end(), t.attacker_index)) {
      delivered.push_back(t);
    }
  }
  const double collapsed =
      poolless_fixture.environment.Evaluate(delivered);

  // Pooled defended campaign: same defender, 30 replacement accounts.
  auto pooled_cfg = cfg;
  pooled_cfg.pool.reserve_accounts = 30;
  pooled_cfg.pool.min_live_attackers = 2;
  CampaignFixture pooled_fixture(30);
  env::FaultyEnvironment pooled_faulty(&pooled_fixture.environment, {});
  env::DefendedEnvironment pooled_platform(
      &pooled_faulty, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
  PoisonRecAttacker pooled(&pooled_fixture.environment, pooled_cfg);
  pooled.AttachPlatform(&pooled_platform, &pooled_platform, kNoSleep);
  const auto pooled_stats = pooled.Train(kSteps);

  ASSERT_EQ(pooled_stats.size(), kSteps);
  EXPECT_TRUE(pooled.campaign_status().ok());
  for (const auto& s : pooled_stats) {
    EXPECT_GE(s.effective_attackers, pooled_cfg.pool.min_live_attackers)
        << "step " << s.step;
  }
  // The reserve absorbed the bans: the policy's full fleet stays live.
  EXPECT_EQ(pooled_stats.back().effective_attackers, pooled.num_slots());
  EXPECT_GT(pooled_stats.back().banned_accounts, 0u);
  EXPECT_LT(pooled_stats.back().pool_remaining, 30u);

  const double sustained =
      pooled_fixture.environment.Evaluate(pooled.BestAttack());
  EXPECT_GE(sustained, 0.6 * undefended_recnum)
      << "pooled " << sustained << " vs undefended " << undefended_recnum;
  EXPECT_GE(sustained, collapsed)
      << "the pool should at least match the collapsed fleet";
}

TEST(DefendedCampaignTest, PoolExhaustionAbortsWithResourceExhausted) {
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.reserve_accounts = 2;
  cfg.pool.min_live_attackers = 5;  // of 6 slots: one dead slot too many
  CampaignFixture f(2);
  env::FaultyEnvironment faulty(&f.environment, {});
  env::DefendedEnvironment platform(
      &faulty, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
  PoisonRecAttacker attacker(&f.environment, cfg);
  attacker.AttachPlatform(&platform, &platform, kNoSleep);

  const auto stats = attacker.Train(30);
  EXPECT_LT(stats.size(), 30u) << "campaign should abort early";
  EXPECT_EQ(attacker.campaign_status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_NE(attacker.account_pool(), nullptr);
  EXPECT_LT(attacker.account_pool()->live_slots(),
            cfg.pool.min_live_attackers);
  EXPECT_EQ(attacker.account_pool()->reserve_remaining(), 0u);
}

TEST(DefendedCampaignTest, TrainGuardedAbortsOnExhaustionWithoutRollback) {
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.reserve_accounts = 1;
  cfg.pool.min_live_attackers = 6;  // abort on the very first dead slot
  cfg.guard.enabled = true;
  CampaignFixture f(1);
  env::FaultyEnvironment faulty(&f.environment, {});
  env::DefendedEnvironment platform(
      &faulty, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
  PoisonRecAttacker attacker(&f.environment, cfg);
  attacker.AttachPlatform(&platform, &platform, kNoSleep);

  const std::string path = TempPath("poisonrec_defended_guard_ckpt.bin");
  const GuardedTrainResult result = attacker.TrainGuarded(30, path);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  // Resource exhaustion is an incident, not a numerical anomaly: the
  // self-healing driver must not roll back or retry its way out of it.
  EXPECT_EQ(result.rollbacks, 0u);
  EXPECT_GE(result.incidents, 1u);
  std::remove(path.c_str());
}

TEST(DefendedCampaignTest, SameSeedRunsAreBitIdentical) {
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.reserve_accounts = 10;
  cfg.pool.min_live_attackers = 2;

  auto run = [&cfg]() {
    CampaignFixture f(10);
    env::FaultProfile faults;
    faults.query_failure_rate = 0.2;
    faults.injection_drop_rate = 0.1;
    faults.seed = 17;
    env::FaultyEnvironment faulty(&f.environment, faults);
    env::DefendedEnvironment platform(
        &faulty, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
    PoisonRecAttacker attacker(&f.environment, cfg);
    attacker.AttachPlatform(&platform, &platform, kNoSleep);
    const auto stats = attacker.Train(8);
    return std::make_tuple(stats, platform.ban_events(),
                           attacker.best_episode().reward);
  };

  const auto [stats_a, events_a, best_a] = run();
  const auto [stats_b, events_b, best_b] = run();
  EXPECT_DOUBLE_EQ(best_a, best_b);
  ASSERT_EQ(stats_a.size(), stats_b.size());
  for (std::size_t i = 0; i < stats_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(stats_a[i].mean_reward, stats_b[i].mean_reward);
    EXPECT_DOUBLE_EQ(stats_a[i].loss, stats_b[i].loss);
    EXPECT_EQ(stats_a[i].banned_accounts, stats_b[i].banned_accounts);
    EXPECT_EQ(stats_a[i].pool_remaining, stats_b[i].pool_remaining);
    EXPECT_EQ(stats_a[i].effective_attackers, stats_b[i].effective_attackers);
  }
  ASSERT_EQ(events_a.size(), events_b.size());
  ASSERT_FALSE(events_a.empty());
  for (std::size_t i = 0; i < events_a.size(); ++i) {
    EXPECT_EQ(events_a[i].query_id, events_b[i].query_id);
    EXPECT_EQ(events_a[i].attacker_index, events_b[i].attacker_index);
  }
}

TEST(DefendedCampaignTest, CrashAndResumeReplaysTheExactBanSequence) {
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.reserve_accounts = 10;
  cfg.pool.min_live_attackers = 2;

  // Uninterrupted reference: 8 steps.
  CampaignFixture f_full(10);
  env::FaultyEnvironment faulty_full(&f_full.environment, {});
  env::DefendedEnvironment platform_full(
      &faulty_full, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
  PoisonRecAttacker uninterrupted(&f_full.environment, cfg);
  uninterrupted.AttachPlatform(&platform_full, &platform_full, kNoSleep);
  const auto reference = uninterrupted.Train(8);

  // Crashed run: 4 steps, checkpoint, kill — then a brand-new process:
  // fresh platform (empty defender state), fresh attacker, LoadCheckpoint.
  const std::string path = TempPath("poisonrec_defended_resume_ckpt.bin");
  CampaignFixture f_killed(10);
  env::FaultyEnvironment faulty_a(&f_killed.environment, {});
  {
    env::DefendedEnvironment platform_a(
        &faulty_a, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
    PoisonRecAttacker first_process(&f_killed.environment, cfg);
    first_process.AttachPlatform(&platform_a, &platform_a, kNoSleep);
    first_process.Train(4);
    ASSERT_TRUE(first_process.SaveCheckpoint(path).ok());
  }
  env::DefendedEnvironment platform_b(
      &faulty_a, defense::MakeDefaultEnsemble(), AggressiveProfile(cfg));
  PoisonRecAttacker resumed(&f_killed.environment, cfg);
  resumed.AttachPlatform(&platform_b, &platform_b, kNoSleep);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  EXPECT_EQ(resumed.steps_taken(), 4u);
  const auto tail = resumed.Train(4);

  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_DOUBLE_EQ(reference[4 + i].mean_reward, tail[i].mean_reward);
    EXPECT_DOUBLE_EQ(reference[4 + i].loss, tail[i].loss);
    EXPECT_EQ(reference[4 + i].banned_accounts, tail[i].banned_accounts);
    EXPECT_EQ(reference[4 + i].pool_remaining, tail[i].pool_remaining);
    EXPECT_EQ(reference[4 + i].effective_attackers,
              tail[i].effective_attackers);
  }
  // The resumed platform replayed the full-run ban sequence exactly.
  const auto events_full = platform_full.ban_events();
  const auto events_resumed = platform_b.ban_events();
  ASSERT_EQ(events_full.size(), events_resumed.size());
  ASSERT_FALSE(events_full.empty());
  for (std::size_t i = 0; i < events_full.size(); ++i) {
    EXPECT_EQ(events_full[i].query_id, events_resumed[i].query_id);
    EXPECT_EQ(events_full[i].attacker_index, events_resumed[i].attacker_index);
    EXPECT_DOUBLE_EQ(events_full[i].suspicion, events_resumed[i].suspicion);
  }
  std::remove(path.c_str());
}

TEST(DefendedCampaignTest, OversizedDefenderBlobLengthIsDataLoss) {
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.reserve_accounts = 4;
  CampaignFixture f(4);
  env::FaultyEnvironment faulty(&f.environment, {});
  env::DefendedEnvironment platform(&faulty, defense::MakeDefaultEnsemble(),
                                    AggressiveProfile(cfg));
  PoisonRecAttacker attacker(&f.environment, cfg);
  attacker.AttachPlatform(&platform, &platform, kNoSleep);
  attacker.Train(2);
  const std::string path = TempPath("poisonrec_oversized_blob_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());
  StatusOr<std::string> payload = ReadFileVerified(path);
  ASSERT_TRUE(payload.ok());
  // The defender blob closes the payload, right after its u64 length.
  const std::string blob = platform.SerializeState();
  const std::size_t blob_len_at = payload->size() - blob.size() - 8;
  ASSERT_EQ(U64At(*payload, blob_len_at), blob.size());
  ASSERT_TRUE(WriteFileDurable(path, WithIntegrityFooter(WithU64At(
                                         *payload, blob_len_at, kHuge)))
                  .ok());

  env::DefendedEnvironment fresh(&faulty, defense::MakeDefaultEnsemble(),
                                 AggressiveProfile(cfg));
  PoisonRecAttacker victim(&f.environment, cfg);
  victim.AttachPlatform(&fresh, &fresh, kNoSleep);
  Status status;
  EXPECT_NO_THROW(status = victim.LoadCheckpoint(path));
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "truncated checkpoint");
  EXPECT_EQ(victim.steps_taken(), 0u);
  EXPECT_EQ(fresh.stats().queries, 0u);
  std::remove(path.c_str());
}

// The engine fixtures (batched_engine_test.cc) digest pool-less,
// undefended checkpoints only. This one pins the v2 sections too: the
// account pool after a remap and the defender blob after a ban, from a
// campaign whose queries also fail transiently and are retried.
constexpr std::uint32_t kPooledDefendedGolden = 0x030abd6b;

std::uint32_t RunPooledDefendedCampaign() {
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.reserve_accounts = 4;
  cfg.pool.min_live_attackers = 2;
  CampaignFixture f(4);
  env::FaultProfile faults;
  faults.query_failure_rate = 0.3;
  faults.seed = 19;
  env::FaultyEnvironment faulty(&f.environment, faults);
  env::DefendedEnvironment platform(&faulty, defense::MakeDefaultEnsemble(),
                                    AggressiveProfile(cfg));
  PoisonRecAttacker attacker(&f.environment, cfg);
  attacker.AttachPlatform(&platform, &platform, kNoSleep);
  std::size_t retries = 0;
  for (const TrainStepStats& s : attacker.Train(4)) retries += s.retries;
  EXPECT_GT(retries, 0u);
  EXPECT_FALSE(platform.ban_events().empty());
  EXPECT_GT(attacker.account_pool()->next_account(),
            attacker.account_pool()->num_slots());

  const std::string path = TempPath("poisonrec_pooled_defended_ckpt.bin");
  EXPECT_TRUE(attacker.SaveCheckpoint(path).ok());
  StatusOr<std::string> bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  EXPECT_TRUE(bytes.ok());
  Digest digest;
  digest.Vector(std::vector<char>(bytes->begin(), bytes->end()));
  const std::string blob = platform.SerializeState();
  digest.Vector(std::vector<char>(blob.begin(), blob.end()));
  return digest.value();
}

TEST(DefendedGoldenTest, PooledDefendedCheckpointMatchesGoldenDigest) {
  struct ThreadGuard {
    ~ThreadGuard() { nn::SetNumThreads(0); }
  } guard;
  nn::SetNumThreads(1);
  const std::uint32_t one_thread = RunPooledDefendedCampaign();
  nn::SetNumThreads(4);
  const std::uint32_t four_threads = RunPooledDefendedCampaign();
  char actual[16];
  std::snprintf(actual, sizeof(actual), "0x%08x", one_thread);
  EXPECT_EQ(one_thread, four_threads) << "thread-count dependence";
  EXPECT_EQ(one_thread, kPooledDefendedGolden)
      << "checkpoint bytes moved; if intended, set kPooledDefendedGolden "
         "to "
      << actual;
}

}  // namespace
}  // namespace poisonrec::core
