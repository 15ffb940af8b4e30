// PPO trainer tests: Algorithm 1 mechanics, reward tracking, and the
// end-to-end learning property (reward rises on an ItemPop system).
#include "core/ppo.h"

#include <cmath>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "data/synthetic.h"
#include "rec/registry.h"

namespace poisonrec::core {
namespace {

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
    cfg.samples_per_step = 6;
    cfg.batch_size = 6;
    cfg.update_epochs = 2;
    cfg.policy.embedding_dim = 8;
    cfg.policy.action_space = ActionSpaceKind::kBcbtPopular;
    cfg.seed = 7;
    return cfg;
  }

  env::AttackEnvironment environment;
};

TEST(TrajectoryUtilTest, ToEnvTrajectoriesStripsBookkeeping) {
  SampledTrajectory t;
  t.attacker_index = 3;
  t.steps.resize(2);
  t.steps[0].item = 5;
  t.steps[1].item = 9;
  auto env_trajs = ToEnvTrajectories({t});
  ASSERT_EQ(env_trajs.size(), 1u);
  EXPECT_EQ(env_trajs[0].attacker_index, 3u);
  EXPECT_EQ(env_trajs[0].items, (std::vector<data::ItemId>{5, 9}));
}

TEST(TrajectoryUtilTest, TargetClickRatio) {
  Episode ep;
  SampledTrajectory t;
  t.steps.resize(4);
  t.steps[0].item = 1;    // original
  t.steps[1].item = 100;  // target
  t.steps[2].item = 101;  // target
  t.steps[3].item = 2;    // original
  ep.trajectories.push_back(t);
  EXPECT_DOUBLE_EQ(TargetClickRatio(ep, 100), 0.5);
  EXPECT_DOUBLE_EQ(TargetClickRatio(Episode{}, 100), 0.0);
}

TEST(PpoUpdateTest, EqualRewardsLeaveEveryParameterBitIdentical) {
  // A plateau: equal observed rewards give every decision zero advantage
  // under Eq. 8, so each of the K epochs steps Adam on zero gradients.
  PoisonRecConfig config = Fixture::MakeAttackerConfig();
  config.samples_per_step = 4;
  config.batch_size = 3;  // B < M: `rng` draws each epoch's batch
  config.update_epochs = 3;
  std::vector<data::ItemId> originals(30);
  for (std::size_t i = 0; i < originals.size(); ++i) originals[i] = i;
  const Policy policy(5, 34, originals, {30, 31, 32, 33}, config.policy);
  std::vector<Rng> rngs;
  for (std::size_t m = 0; m < config.samples_per_step; ++m) {
    rngs.emplace_back(DeriveStreamSeed(config.seed, 1, m));
  }
  std::vector<std::vector<SampledTrajectory>> sampled =
      policy.SampleEpisodesBatched(rngs.size(), 6, &rngs);
  std::vector<Episode> episodes(sampled.size());
  for (std::size_t m = 0; m < episodes.size(); ++m) {
    episodes[m].trajectories = std::move(sampled[m]);
    episodes[m].reward = 7.0;
  }
  std::vector<std::vector<float>> before;
  for (const nn::Tensor& p : policy.Parameters()) before.push_back(p.data());
  nn::Adam adam(policy.Parameters(), config.learning_rate);
  Rng rng(5);

  const PpoUpdateResult result =
      PpoUpdate(config, policy, &adam, episodes, /*pool=*/nullptr, &rng);
  EXPECT_EQ(result.loss, 0.0);
  EXPECT_EQ(result.pre_clip_grad_norm, 0.0);
  EXPECT_FALSE(result.guard_event.has_value());
  EXPECT_EQ(adam.step_count(), config.update_epochs);
  const std::vector<nn::Tensor> after = policy.Parameters();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(SameBits(before[i], after[i].data())) << "parameter " << i;
  }
}

TEST(PoisonRecAttackerTest, TrainStepProducesStats) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  TrainStepStats stats = attacker.TrainStep();
  EXPECT_EQ(stats.step, 1u);
  EXPECT_GE(stats.max_reward, stats.mean_reward);
  EXPECT_GE(stats.mean_reward, stats.min_reward);
  EXPECT_EQ(stats.best_reward_so_far, attacker.best_episode().reward);
  EXPECT_TRUE(std::isfinite(stats.loss));
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GE(stats.target_click_ratio, 0.0);
  EXPECT_LE(stats.target_click_ratio, 1.0);
}

TEST(PoisonRecAttackerTest, BestRewardIsMonotone) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  double best = -1.0;
  for (int s = 0; s < 4; ++s) {
    TrainStepStats stats = attacker.TrainStep();
    EXPECT_GE(stats.best_reward_so_far, best);
    best = stats.best_reward_so_far;
    EXPECT_GE(stats.best_reward_so_far, stats.max_reward - 1e-9);
  }
}

TEST(PoisonRecAttackerTest, BestAttackMatchesBudget) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.TrainStep();
  auto attack = attacker.BestAttack();
  ASSERT_EQ(attack.size(), 10u);
  for (const auto& t : attack) {
    EXPECT_EQ(t.items.size(), 10u);
    for (data::ItemId item : t.items) {
      EXPECT_LT(item, f.environment.num_total_items());
    }
  }
}

TEST(PoisonRecAttackerTest, LearnsToPromoteOnItemPop) {
  // The headline property: training raises the mean episode reward and
  // the learned strategy concentrates clicks on targets (the paper's
  // ItemPop finding: ratio -> ~1).
  Fixture f;
  PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
  cfg.samples_per_step = 8;
  cfg.batch_size = 8;
  cfg.update_epochs = 3;
  PoisonRecAttacker attacker(&f.environment, cfg);
  double first_mean = 0.0;
  double first_ratio = 0.0;
  double last_mean = 0.0;
  double last_ratio = 0.0;
  for (int s = 0; s < 25; ++s) {
    TrainStepStats stats = attacker.TrainStep();
    if (s == 0) {
      first_mean = stats.mean_reward;
      first_ratio = stats.target_click_ratio;
    }
    last_mean = stats.mean_reward;
    last_ratio = stats.target_click_ratio;
  }
  EXPECT_GT(last_mean, first_mean * 1.3)
      << "reward did not improve: " << first_mean << " -> " << last_mean;
  EXPECT_GT(last_ratio, first_ratio);
  EXPECT_GT(last_ratio, 0.55);
}

TEST(PoisonRecAttackerTest, TrainReturnsPerStepStats) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  auto stats = attacker.Train(3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].step, 1u);
  EXPECT_EQ(stats[2].step, 3u);
  EXPECT_EQ(attacker.steps_taken(), 3u);
}

TEST(PoisonRecAttackerTest, DeterministicAcrossRuns) {
  Fixture f1;
  Fixture f2;
  PoisonRecAttacker a(&f1.environment, Fixture::MakeAttackerConfig());
  PoisonRecAttacker b(&f2.environment, Fixture::MakeAttackerConfig());
  auto sa = a.TrainStep();
  auto sb = b.TrainStep();
  EXPECT_DOUBLE_EQ(sa.mean_reward, sb.mean_reward);
  EXPECT_DOUBLE_EQ(sa.loss, sb.loss);
}

TEST(PoisonRecAttackerTest, WorksWithEveryActionSpace) {
  for (ActionSpaceKind kind :
       {ActionSpaceKind::kPlain, ActionSpaceKind::kBPlain,
        ActionSpaceKind::kBcbtPopular, ActionSpaceKind::kBcbtRandom,
        ActionSpaceKind::kCbtUnbiased}) {
    Fixture f;
    PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
    cfg.policy.action_space = kind;
    PoisonRecAttacker attacker(&f.environment, cfg);
    TrainStepStats stats = attacker.TrainStep();
    EXPECT_TRUE(std::isfinite(stats.loss)) << ActionSpaceKindName(kind);
  }
}

}  // namespace
}  // namespace poisonrec::core
