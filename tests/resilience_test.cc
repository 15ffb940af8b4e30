// Resilient-training tests: the PPO loop consuming a FaultyEnvironment
// must retry transient errors, impute rewards it never observes, keep the
// Eq. 8 statistics clean, and still learn — the acceptance bar is a best
// reward within 70% of the fault-free run on the synthetic dataset.
#include <cmath>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/ppo.h"
#include "data/synthetic.h"
#include "env/fault.h"
#include "rec/registry.h"
#include "util/fsio.h"

namespace poisonrec::core {
namespace {

const SleepFn kNoSleep = [](double) {};

struct Fixture {
  Fixture()
      : environment(MakeLog(), rec::MakeRecommender("ItemPop").value(),
                    MakeEnvConfig()) {}

  static data::Dataset MakeLog() {
    data::SyntheticConfig cfg;
    cfg.num_users = 120;
    cfg.num_items = 100;
    cfg.num_interactions = 1200;
    cfg.seed = 3;
    return data::GenerateSynthetic(cfg);
  }

  static env::EnvironmentConfig MakeEnvConfig() {
    env::EnvironmentConfig cfg;
    cfg.num_attackers = 10;
    cfg.trajectory_length = 10;
    cfg.num_target_items = 4;
    cfg.num_candidate_originals = 30;
    cfg.top_k = 5;
    cfg.seed = 11;
    return cfg;
  }

  static PoisonRecConfig MakeAttackerConfig() {
    PoisonRecConfig cfg;
    cfg.samples_per_step = 8;
    cfg.batch_size = 8;
    cfg.update_epochs = 3;
    cfg.policy.embedding_dim = 8;
    cfg.seed = 7;
    return cfg;
  }

  env::AttackEnvironment environment;
};

TEST(ResilienceTest, TrainingSurvivesFaultsAndDegradesGracefully) {
  // The acceptance-criteria profile: 20% query failures, 10% click drops,
  // 5% shadow bans.
  Fixture clean_fixture;
  Fixture faulty_fixture;
  const auto cfg = Fixture::MakeAttackerConfig();
  const std::size_t kSteps = 30;

  PoisonRecAttacker clean(&clean_fixture.environment, cfg);
  clean.Train(kSteps);
  const double clean_best = clean.best_episode().reward;
  ASSERT_GT(clean_best, 0.0);

  env::FaultProfile profile;
  profile.query_failure_rate = 0.2;
  profile.injection_drop_rate = 0.1;
  profile.shadow_ban_rate = 0.05;
  profile.seed = 17;
  env::FaultyEnvironment faulty_env(&faulty_fixture.environment, profile);
  PoisonRecAttacker faulty(&faulty_fixture.environment, cfg);
  faulty.AttachPlatform(&faulty_env, nullptr, kNoSleep);
  const auto stats = faulty.Train(kSteps);

  // Train completed without error for every step.
  ASSERT_EQ(stats.size(), kSteps);
  for (const auto& s : stats) {
    EXPECT_TRUE(std::isfinite(s.loss)) << "step " << s.step;
  }
  // Retries actually happened under a 20% failure rate.
  std::size_t total_retries = 0;
  for (const auto& s : stats) total_retries += s.retries;
  EXPECT_GT(total_retries, 0u);

  // Graceful degradation: the attack learned under faults still reaches
  // >= 70% of the fault-free best reward. The best attack is re-scored on
  // the clean channel — the observed reward under faults is structurally
  // dampened by dropped clicks and banned accounts, which measures the
  // channel, not what the attacker learned.
  const double faulty_best =
      faulty_fixture.environment.Evaluate(faulty.BestAttack());
  EXPECT_GE(faulty_best, 0.7 * clean_best)
      << "faulty best " << faulty_best << " vs clean best " << clean_best;
}

TEST(ResilienceTest, FailedQueriesAreImputedAndExcludedFromStats) {
  Fixture f;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.retry.max_attempts = 1;  // no retries: failures stay failed

  env::FaultProfile profile;
  profile.query_failure_rate = 0.5;
  profile.seed = 23;
  env::FaultyEnvironment faulty_env(&f.environment, profile);
  PoisonRecAttacker attacker(&f.environment, cfg);
  attacker.AttachPlatform(&faulty_env, nullptr, kNoSleep);

  bool saw_failure = false;
  for (int s = 0; s < 6; ++s) {
    TrainStepStats stats = attacker.TrainStep();
    if (stats.failed_queries == 0) continue;
    saw_failure = true;
    EXPECT_EQ(stats.retries, 0u);
    // Imputation only happens when at least one reward was observed.
    if (stats.failed_queries < cfg.samples_per_step) {
      EXPECT_EQ(stats.imputed_rewards, stats.failed_queries);
      // Observed-only statistics stay coherent.
      EXPECT_GE(stats.max_reward, stats.mean_reward);
      EXPECT_GE(stats.mean_reward, stats.min_reward);
    } else {
      EXPECT_EQ(stats.imputed_rewards, 0u);
    }
    EXPECT_TRUE(std::isfinite(stats.loss));
  }
  EXPECT_TRUE(saw_failure);
}

TEST(ResilienceTest, RetriesRecoverTransientFailures) {
  Fixture f;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.retry.max_attempts = 6;

  env::FaultProfile profile;
  profile.query_failure_rate = 0.3;
  profile.seed = 29;
  env::FaultyEnvironment faulty_env(&f.environment, profile);
  PoisonRecAttacker attacker(&f.environment, cfg);
  attacker.AttachPlatform(&faulty_env, nullptr, kNoSleep);

  std::size_t total_retries = 0;
  std::size_t total_failures = 0;
  for (int s = 0; s < 4; ++s) {
    TrainStepStats stats = attacker.TrainStep();
    total_retries += stats.retries;
    total_failures += stats.failed_queries;
  }
  EXPECT_GT(total_retries, 0u);
  // With 6 attempts against a 30% failure rate, queries essentially
  // always recover (p_fail = 0.3^6 ~ 7e-4 per query).
  EXPECT_EQ(total_failures, 0u);
}

TEST(ResilienceTest, ParallelAndSequentialFaultyTrainingMatch) {
  Fixture f_seq;
  Fixture f_par;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.retry.max_attempts = 3;

  env::FaultProfile profile;
  profile.query_failure_rate = 0.2;
  profile.injection_drop_rate = 0.1;
  profile.shadow_ban_rate = 0.05;
  profile.reward_noise_stddev = 1.0;
  profile.seed = 31;

  env::FaultyEnvironment faulty_seq(&f_seq.environment, profile);
  PoisonRecAttacker sequential(&f_seq.environment, cfg);
  sequential.AttachPlatform(&faulty_seq, nullptr, kNoSleep);

  cfg.parallel_rewards = true;
  cfg.num_threads = 4;
  env::FaultyEnvironment faulty_par(&f_par.environment, profile);
  PoisonRecAttacker parallel(&f_par.environment, cfg);
  parallel.AttachPlatform(&faulty_par, nullptr, kNoSleep);

  for (int step = 0; step < 3; ++step) {
    auto a = sequential.TrainStep();
    auto b = parallel.TrainStep();
    EXPECT_DOUBLE_EQ(a.mean_reward, b.mean_reward) << "step " << step;
    EXPECT_DOUBLE_EQ(a.loss, b.loss) << "step " << step;
    EXPECT_EQ(a.failed_queries, b.failed_queries) << "step " << step;
    EXPECT_EQ(a.retries, b.retries) << "step " << step;
  }
}

// A zero FaultProfile is the clean platform: an attacker that queries
// through one trains exactly as one with nothing attached. The campaign
// runners rely on this to stack the fault layer unconditionally.
TEST(ResilienceTest, ZeroProfileFaultLayerTrainsLikeTheBareEnvironment) {
  Fixture f;
  const PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
  PoisonRecAttacker bare(&f.environment, cfg);
  const env::FaultyEnvironment zero(&f.environment, env::FaultProfile());
  PoisonRecAttacker stacked(&f.environment, cfg);
  stacked.AttachPlatform(&zero, nullptr, kNoSleep);

  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE(step);
    const TrainStepStats a = bare.TrainStep();
    const TrainStepStats b = stacked.TrainStep();
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.mean_reward, b.mean_reward);
    EXPECT_EQ(a.max_reward, b.max_reward);
    EXPECT_EQ(a.min_reward, b.min_reward);
    EXPECT_EQ(a.best_reward_so_far, b.best_reward_so_far);
    EXPECT_EQ(a.loss, b.loss);
    EXPECT_EQ(a.target_click_ratio, b.target_click_ratio);
    EXPECT_EQ(a.failed_queries, b.failed_queries);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.imputed_rewards, b.imputed_rewards);
    EXPECT_EQ(a.pre_clip_grad_norm, b.pre_clip_grad_norm);
    EXPECT_EQ(a.entropy, b.entropy);
    EXPECT_EQ(a.approx_kl, b.approx_kl);
    EXPECT_EQ(a.guard.tripped(), b.guard.tripped());
    EXPECT_EQ(a.effective_attackers, b.effective_attackers);
  }

  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string bare_path =
      (dir / "poisonrec_zero_fault_bare.ckpt").string();
  const std::string stacked_path =
      (dir / "poisonrec_zero_fault_stacked.ckpt").string();
  ASSERT_TRUE(bare.SaveCheckpoint(bare_path).ok());
  ASSERT_TRUE(stacked.SaveCheckpoint(stacked_path).ok());
  const StatusOr<std::string> bare_bytes = ReadFileBytes(bare_path);
  const StatusOr<std::string> stacked_bytes = ReadFileBytes(stacked_path);
  ASSERT_TRUE(bare_bytes.ok() && stacked_bytes.ok());
  EXPECT_TRUE(*bare_bytes == *stacked_bytes)
      << "checkpoints differ: " << bare_bytes->size() << " vs "
      << stacked_bytes->size() << " bytes";
  std::filesystem::remove(bare_path);
  std::filesystem::remove(stacked_path);
}

TEST(ResilienceTest, TotalBlackoutSkipsUpdatesButDoesNotCrash) {
  Fixture f;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.retry.max_attempts = 2;

  env::FaultProfile profile;
  profile.query_failure_rate = 1.0;  // nothing ever succeeds
  env::FaultyEnvironment faulty_env(&f.environment, profile);
  PoisonRecAttacker attacker(&f.environment, cfg);
  attacker.AttachPlatform(&faulty_env, nullptr, kNoSleep);

  TrainStepStats stats = attacker.TrainStep();
  EXPECT_EQ(stats.failed_queries, cfg.samples_per_step);
  EXPECT_EQ(stats.imputed_rewards, 0u);
  EXPECT_DOUBLE_EQ(stats.loss, 0.0);
  EXPECT_DOUBLE_EQ(stats.best_reward_so_far, 0.0);
  EXPECT_EQ(attacker.steps_taken(), 1u);
}

}  // namespace
}  // namespace poisonrec::core
