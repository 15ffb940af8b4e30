// FaultyEnvironment tests: deterministic seeded faults, corruption
// semantics (drops, bans, noise), and throttle cool-down behavior.
#include "env/fault.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "rec/registry.h"

namespace poisonrec::env {
namespace {

struct Fixture {
  Fixture()
      : environment(MakeLog(), rec::MakeRecommender("ItemPop").value(),
                    MakeEnvConfig()) {}

  static data::Dataset MakeLog() {
    data::SyntheticConfig cfg;
    cfg.num_users = 80;
    cfg.num_items = 60;
    cfg.num_interactions = 800;
    cfg.seed = 5;
    return data::GenerateSynthetic(cfg);
  }

  static EnvironmentConfig MakeEnvConfig() {
    EnvironmentConfig cfg;
    cfg.num_attackers = 6;
    cfg.trajectory_length = 8;
    cfg.num_target_items = 3;
    cfg.num_candidate_originals = 20;
    cfg.seed = 13;
    return cfg;
  }

  /// A fixed attack hitting the targets (so corruption is measurable).
  std::vector<Trajectory> MakeAttack() const {
    std::vector<Trajectory> trajs(environment.num_attackers());
    for (std::size_t a = 0; a < trajs.size(); ++a) {
      trajs[a].attacker_index = a;
      for (std::size_t t = 0; t < environment.trajectory_length(); ++t) {
        trajs[a].items.push_back(
            environment.target_items()[t % environment.target_items().size()]);
      }
    }
    return trajs;
  }

  AttackEnvironment environment;
};

TEST(FaultyEnvironmentTest, NoFaultsMatchesBaseEnvironment) {
  Fixture f;
  FaultProfile profile;  // all rates zero
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  auto result = faulty.TryEvaluate(attack, /*query_id=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(*result, f.environment.Evaluate(attack));
}

TEST(FaultyEnvironmentTest, SameSeedSameFaults) {
  Fixture f;
  FaultProfile profile;
  profile.query_failure_rate = 0.3;
  profile.throttle_rate = 0.2;
  profile.injection_drop_rate = 0.2;
  profile.shadow_ban_rate = 0.1;
  profile.reward_noise_stddev = 2.0;
  profile.seed = 77;
  FaultyEnvironment a(&f.environment, profile);
  FaultyEnvironment b(&f.environment, profile);
  const auto attack = f.MakeAttack();
  for (std::uint64_t q = 0; q < 20; ++q) {
    auto ra = a.TryEvaluate(attack, q);
    auto rb = b.TryEvaluate(attack, q);
    ASSERT_EQ(ra.ok(), rb.ok()) << "query " << q;
    if (ra.ok()) {
      EXPECT_DOUBLE_EQ(*ra, *rb) << "query " << q;
    } else {
      EXPECT_EQ(ra.status().code(), rb.status().code()) << "query " << q;
    }
  }
}

TEST(FaultyEnvironmentTest, DifferentSeedDifferentFaults) {
  Fixture f;
  FaultProfile profile;
  profile.query_failure_rate = 0.5;
  profile.seed = 1;
  FaultyEnvironment a(&f.environment, profile);
  profile.seed = 2;
  FaultyEnvironment b(&f.environment, profile);
  const auto attack = f.MakeAttack();
  int disagreements = 0;
  for (std::uint64_t q = 0; q < 40; ++q) {
    if (a.TryEvaluate(attack, q).ok() != b.TryEvaluate(attack, q).ok()) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultyEnvironmentTest, TransientFailureIsUnavailableAndRetriable) {
  Fixture f;
  FaultProfile profile;
  profile.query_failure_rate = 0.5;
  profile.seed = 3;
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  // Find a failing (query, attempt 0); a later attempt of the same query
  // redraws independently, so some failing query succeeds on retry.
  bool saw_failure = false;
  bool saw_recovery = false;
  for (std::uint64_t q = 0; q < 50 && !(saw_failure && saw_recovery); ++q) {
    auto first = faulty.TryEvaluate(attack, q, /*attempt=*/0);
    if (first.ok()) continue;
    saw_failure = true;
    EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
    for (std::uint32_t attempt = 1; attempt < 8; ++attempt) {
      if (faulty.TryEvaluate(attack, q, attempt).ok()) {
        saw_recovery = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_recovery);
}

TEST(FaultyEnvironmentTest, ThrottleClearsAfterCooldown) {
  Fixture f;
  FaultProfile profile;
  profile.throttle_rate = 0.5;
  profile.throttle_cooldown_attempts = 3;
  profile.seed = 4;
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  bool saw_throttle = false;
  for (std::uint64_t q = 0; q < 30 && !saw_throttle; ++q) {
    auto first = faulty.TryEvaluate(attack, q, /*attempt=*/0);
    if (first.ok()) continue;
    saw_throttle = true;
    ASSERT_EQ(first.status().code(), StatusCode::kResourceExhausted);
    // Still throttled through the cool-down window...
    for (std::uint32_t attempt = 1; attempt < 3; ++attempt) {
      auto again = faulty.TryEvaluate(attack, q, attempt);
      ASSERT_FALSE(again.ok());
      EXPECT_EQ(again.status().code(), StatusCode::kResourceExhausted);
    }
    // ...and forgiven afterwards.
    EXPECT_TRUE(faulty.TryEvaluate(attack, q, /*attempt=*/3).ok());
  }
  EXPECT_TRUE(saw_throttle);
}

TEST(FaultyEnvironmentTest, FullDropRateSilencesTheAttack) {
  Fixture f;
  FaultProfile profile;
  profile.injection_drop_rate = 1.0;
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  auto result = faulty.TryEvaluate(attack, 0);
  ASSERT_TRUE(result.ok());
  // Every click dropped == evaluating the empty attack.
  EXPECT_DOUBLE_EQ(*result, f.environment.BaselineRecNum());
  EXPECT_EQ(faulty.stats().dropped_clicks,
            f.environment.num_attackers() * f.environment.trajectory_length());
}

TEST(FaultyEnvironmentTest, FullBanRateSilencesTheAttack) {
  Fixture f;
  FaultProfile profile;
  profile.shadow_ban_rate = 1.0;
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  auto result = faulty.TryEvaluate(attack, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(*result, f.environment.BaselineRecNum());
  EXPECT_EQ(faulty.stats().banned_trajectories, f.environment.num_attackers());
}

TEST(FaultyEnvironmentTest, PartialDropWeakensButDoesNotKillTheAttack) {
  Fixture f;
  FaultProfile profile;
  profile.injection_drop_rate = 0.3;
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  auto result = faulty.TryEvaluate(attack, 0);
  ASSERT_TRUE(result.ok());
  const double clean = f.environment.Evaluate(attack);
  const double baseline = f.environment.BaselineRecNum();
  EXPECT_GE(*result, baseline);
  EXPECT_LE(*result, clean);
  auto stats = faulty.stats();
  EXPECT_GT(stats.dropped_clicks, 0u);
  EXPECT_LT(stats.dropped_clicks,
            f.environment.num_attackers() * f.environment.trajectory_length());
}

TEST(FaultyEnvironmentTest, RewardNoiseIsZeroMeanish) {
  Fixture f;
  FaultProfile profile;
  profile.reward_noise_stddev = 3.0;
  profile.seed = 6;
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  const double clean = f.environment.Evaluate(attack);
  double sum = 0.0;
  int differs = 0;
  const int kQueries = 50;
  for (std::uint64_t q = 0; q < kQueries; ++q) {
    auto result = faulty.TryEvaluate(attack, q);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(*result, 0.0);
    if (*result != clean) ++differs;
    sum += *result;
  }
  EXPECT_GT(differs, kQueries / 2);
  EXPECT_NEAR(sum / kQueries, clean, 3.0);  // ~3 sigma/sqrt(50) << 3
}

TEST(FaultyEnvironmentTest, StaleRewardRepeatsPreviousObservation) {
  Fixture f;
  FaultProfile profile;
  profile.stale_reward_rate = 1.0;  // every query after the first is stale
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  auto first = faulty.TryEvaluate(attack, 0);
  ASSERT_TRUE(first.ok());
  // A very different attack still reports the first (stale) reward.
  auto second = faulty.TryEvaluate({}, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(*second, *first);
  EXPECT_EQ(faulty.stats().stale_rewards, 1u);
}

TEST(FaultyEnvironmentTest, StatsCountEveryAttempt) {
  Fixture f;
  FaultProfile profile;
  profile.query_failure_rate = 0.4;
  profile.seed = 9;
  FaultyEnvironment faulty(&f.environment, profile);
  const auto attack = f.MakeAttack();
  for (std::uint64_t q = 0; q < 10; ++q) {
    faulty.TryEvaluate(attack, q);
  }
  auto stats = faulty.stats();
  EXPECT_EQ(stats.attempts, 10u);
  EXPECT_EQ(stats.attempts, stats.successes + stats.transient_failures +
                                stats.throttled);
}

}  // namespace
}  // namespace poisonrec::env
