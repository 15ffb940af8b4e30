// Cross-module integration tests: full pipelines from data generation
// through attack training, evaluation, persistence, and detection.
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "attack/poisonrec_attack.h"
#include "core/poisonrec.h"
#include "defense/detector.h"
#include "rec/metrics.h"

namespace poisonrec {
namespace {

data::Dataset SmallLog(std::uint64_t seed = 33) {
  data::SyntheticConfig cfg;
  cfg.num_users = 100;
  cfg.num_items = 80;
  cfg.num_interactions = 1100;
  cfg.seed = seed;
  return data::GenerateSynthetic(cfg);
}

env::EnvironmentConfig SmallEnvConfig() {
  env::EnvironmentConfig cfg;
  cfg.num_attackers = 8;
  cfg.trajectory_length = 8;
  cfg.num_target_items = 4;
  cfg.num_candidate_originals = 25;
  cfg.top_k = 5;
  cfg.seed = 44;
  return cfg;
}

rec::FitConfig FastFit() {
  rec::FitConfig fit;
  fit.embedding_dim = 8;
  fit.epochs = 2;
  fit.update_epochs = 2;
  return fit;
}

// Generate -> save CSV -> load CSV -> identical attack surface.
TEST(IntegrationTest, CsvRoundTripPreservesAttackResults) {
  data::Dataset original = SmallLog();
  const std::string path =
      (std::filesystem::temp_directory_path() / "poisonrec_integ.csv")
          .string();
  ASSERT_TRUE(data::SaveDatasetCsv(original, path).ok());
  auto loaded = data::LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());

  env::AttackEnvironment env_a(
      original, rec::MakeRecommender("ItemPop").value(), SmallEnvConfig());
  env::AttackEnvironment env_b(
      *loaded, rec::MakeRecommender("ItemPop").value(), SmallEnvConfig());
  std::vector<env::Trajectory> attack;
  for (std::size_t n = 0; n < 8; ++n) {
    attack.push_back({n, {80, 81, 80, 81, 82, 83, 80, 81}});
  }
  EXPECT_DOUBLE_EQ(env_a.Evaluate(attack), env_b.Evaluate(attack));
  std::remove(path.c_str());
}

// Full training loop against every ranker: finite stats, valid attacks,
// non-negative rewards.
TEST(IntegrationTest, TrainsAgainstEveryRanker) {
  for (const std::string& name : rec::AllRecommenderNames()) {
    env::AttackEnvironment system(SmallLog(),
                                  rec::MakeRecommender(name, FastFit()).value(),
                                  SmallEnvConfig());
    core::PoisonRecConfig config;
    config.samples_per_step = 4;
    config.batch_size = 4;
    config.update_epochs = 2;
    config.policy.embedding_dim = 8;
    core::PoisonRecAttacker attacker(&system, config);
    auto stats = attacker.Train(2);
    EXPECT_TRUE(std::isfinite(stats.back().loss)) << name;
    EXPECT_GE(stats.back().best_reward_so_far, 0.0) << name;
    auto attack = attacker.BestAttack();
    EXPECT_EQ(attack.size(), 8u) << name;
    EXPECT_GE(system.Evaluate(attack), 0.0) << name;
  }
}

// Attack -> attacker checkpoint -> restore: the restored policy
// reproduces the trained policy's behavior exactly.
TEST(IntegrationTest, PolicyCheckpointAfterTraining) {
  env::AttackEnvironment system(SmallLog(),
                                rec::MakeRecommender("ItemPop").value(),
                                SmallEnvConfig());
  core::PoisonRecConfig config;
  config.samples_per_step = 4;
  config.batch_size = 4;
  config.policy.embedding_dim = 8;
  core::PoisonRecAttacker trained(&system, config);
  trained.Train(3);

  const std::string path =
      (std::filesystem::temp_directory_path() / "poisonrec_integ_ckpt.bin")
          .string();
  ASSERT_TRUE(trained.SaveCheckpoint(path).ok());

  core::PoisonRecAttacker restored(&system, config);
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());

  Rng rng_a(5);
  Rng rng_b(5);
  auto ep_a = trained.policy().SampleEpisode(8, &rng_a);
  auto ep_b = restored.policy().SampleEpisode(8, &rng_b);
  for (std::size_t n = 0; n < ep_a.size(); ++n) {
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_EQ(ep_a[n].steps[t].item, ep_b[n].steps[t].item);
    }
  }
  std::remove(path.c_str());
}

// Attack -> detection: an item-promotion fleet must click the cold
// targets to earn any reward, so the cold-affinity detector separates it
// from organic users regardless of how diverse the rest of the
// trajectory is. (Entropy/fleet-similarity detectors can even invert on
// a semi-trained policy — its near-uniform exploration looks *less*
// repetitive than organic sessions — which is why the defense bench
// reports per-detector AUCs.)
TEST(IntegrationTest, LearnedAttackIsDetectableAboveChance) {
  env::AttackEnvironment system(SmallLog(),
                                rec::MakeRecommender("ItemPop").value(),
                                SmallEnvConfig());
  core::PoisonRecConfig config;
  config.samples_per_step = 6;
  config.batch_size = 6;
  config.policy.embedding_dim = 8;
  core::PoisonRecAttacker attacker(&system, config);
  attacker.Train(15);

  data::Dataset poisoned = system.dataset().Clone();
  std::vector<data::UserId> fakes;
  for (const auto& t : attacker.BestAttack()) {
    const data::UserId u = system.AttackerUserId(t.attacker_index);
    poisoned.AddSequence(u, t.items);
    fakes.push_back(u);
  }
  defense::ColdItemAffinityDetector cold_affinity;
  EXPECT_GT(defense::DetectionAuc(cold_affinity.Score(poisoned), fakes),
            0.7);
}

// The whole pipeline is bit-for-bit deterministic across process-local
// reruns with the same seeds.
TEST(IntegrationTest, PipelineIsDeterministic) {
  auto run_once = []() {
    env::AttackEnvironment system(SmallLog(),
                                  rec::MakeRecommender("CoVisitation").value(),
                                  SmallEnvConfig());
    core::PoisonRecConfig config;
    config.samples_per_step = 4;
    config.batch_size = 4;
    config.policy.embedding_dim = 8;
    core::PoisonRecAttacker attacker(&system, config);
    attacker.Train(3);
    return attacker.best_episode().reward;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

// Quality metrics compose with the attack pipeline: poisoning must not
// destroy the ranker's held-out accuracy (stealthiness of the promotion
// attack at this budget).
TEST(IntegrationTest, PoisoningPreservesRankingQuality) {
  data::Dataset full = SmallLog();
  data::LeaveOneOutSplit split = data::SplitLeaveOneOut(full);
  rec::FitConfig fit = FastFit();
  fit.epochs = 8;
  auto ranker = rec::MakeRecommender("BPR", fit).value();

  // Expand capacities for fake users/targets like the environment does.
  data::Dataset train(full.num_users() + 8, full.num_items() + 4);
  for (data::UserId u = 0; u < full.num_users(); ++u) {
    train.AddSequence(u, split.train.Sequence(u));
  }
  ranker->Fit(train);
  rec::EvalProtocol protocol;
  const double before =
      rec::EvaluateRanking(*ranker, full, split.test, protocol).hit_rate;

  data::Dataset poison(train.num_users(), train.num_items());
  Rng rng(3);
  for (data::UserId u = full.num_users(); u < train.num_users(); ++u) {
    for (int c = 0; c < 8; ++c) {
      poison.Add(u, c % 2 == 0 ? full.num_items() : rng.Index(20));
    }
  }
  ranker->Update(poison);
  const double after =
      rec::EvaluateRanking(*ranker, full, split.test, protocol).hit_rate;
  // The attack perturbs but must not collapse accuracy.
  EXPECT_GT(after, 0.5 * before);
}

}  // namespace
}  // namespace poisonrec
