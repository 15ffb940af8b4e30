// The benchmark's own tests: the ranker decorator must be transparent.
// A campaign against a wrapped ranker gives bit-identical rewards to one
// against the bare ranker, with reward queries run sequentially and
// concurrently, and the ledger counts exactly the calls a step makes.
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/ppo.h"
#include "data/synthetic.h"
#include "rec/registry.h"
#include "traced_recommender.h"

namespace poisonrec::campbench {
namespace {

constexpr std::size_t kSteps = 3;
constexpr std::size_t kEpisodes = 4;
constexpr std::size_t kEvalUsers = 30;

struct Rewards {
  std::vector<double> mean, min, max;
  bool operator==(const Rewards&) const = default;
};

Rewards RunTinyCampaign(const std::string& ranker_name, bool parallel,
                        std::shared_ptr<RecLedger> ledger) {
  data::SyntheticConfig synth;
  synth.num_users = 60;
  synth.num_items = 50;
  synth.num_interactions = 900;
  synth.seed = 5;
  const data::Dataset log = data::GenerateSynthetic(synth);

  rec::FitConfig fit;
  fit.embedding_dim = 8;
  fit.epochs = 1;
  fit.update_epochs = 1;
  auto made = rec::MakeRecommender(ranker_name, fit);
  EXPECT_TRUE(made.ok());
  std::unique_ptr<rec::Recommender> ranker = std::move(made).value();
  if (ledger != nullptr) {
    ranker = std::make_unique<TracedRecommender>(std::move(ranker), ledger);
  }
  env::EnvironmentConfig env_config;
  env_config.num_attackers = 5;
  env_config.trajectory_length = 6;
  env_config.num_target_items = 3;
  env_config.num_candidate_originals = 20;
  env_config.max_eval_users = kEvalUsers;
  env::AttackEnvironment env(log, std::move(ranker), env_config);

  core::PoisonRecConfig config;
  config.samples_per_step = kEpisodes;
  config.batch_size = kEpisodes;
  config.policy.embedding_dim = 8;
  config.parallel_rewards = parallel;
  config.num_threads = parallel ? 4 : 1;
  core::PoisonRecAttacker attacker(&env, config);
  Rewards rewards;
  for (std::size_t s = 0; s < kSteps; ++s) {
    const core::TrainStepStats stats = attacker.TrainStep();
    rewards.mean.push_back(stats.mean_reward);
    rewards.min.push_back(stats.min_reward);
    rewards.max.push_back(stats.max_reward);
  }
  return rewards;
}

class TracedRecommenderTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(TracedRecommenderTest, ForwardsExactly) {
  const auto& [ranker, parallel] = GetParam();
  const Rewards bare = RunTinyCampaign(ranker, parallel, nullptr);
  auto ledger = std::make_shared<RecLedger>();
  const Rewards wrapped = RunTinyCampaign(ranker, parallel, ledger);
  EXPECT_EQ(bare, wrapped);

  const RecTotals totals = ledger->Totals();
  EXPECT_EQ(totals.fit_calls, 1u);
  EXPECT_EQ(totals.clone_calls, kSteps * kEpisodes);
  EXPECT_EQ(totals.queries, kSteps * kEpisodes);
  EXPECT_EQ(totals.update_calls, kSteps * kEpisodes);
  EXPECT_EQ(totals.score_calls, kSteps * kEpisodes * kEvalUsers);
  EXPECT_GE(totals.query_s, totals.busy_s());
}

INSTANTIATE_TEST_SUITE_P(
    SequentialAndConcurrent, TracedRecommenderTest,
    ::testing::Combine(::testing::Values("ItemPop", "NeuMF", "GRU4Rec"),
                       ::testing::Bool()));

TEST(RecLedgerTest, QueryGemmCountsOnlyRankerWork) {
  // ItemPop issues no GEMMs, so every GEMM of its campaign is the
  // attacker's and none may be attributed to the queries.
  auto ledger = std::make_shared<RecLedger>();
  const GemmCount before = ReadGemmCounters();
  RunTinyCampaign("ItemPop", /*parallel=*/true, ledger);
  EXPECT_GT((ReadGemmCounters() - before).calls, 0u);
  EXPECT_EQ(ledger->Totals().query_gemm.calls, 0u);
}

}  // namespace
}  // namespace poisonrec::campbench
