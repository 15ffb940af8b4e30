// Ranking-quality metric tests + the testbed-sanity property: every
// fitted ranker beats the random-scorer floor on held-out data.
#include "rec/metrics.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "rec/registry.h"

namespace poisonrec::rec {
namespace {

// A scorer that always prefers lower item ids (deterministic, cheap).
class LowIdFirst : public Recommender {
 public:
  std::string Name() const override { return "LowIdFirst"; }
  void Fit(const data::Dataset&) override {}
  void Update(const data::Dataset&) override {}
  std::vector<double> Score(
      data::UserId, const std::vector<data::ItemId>& cands) const override {
    std::vector<double> s;
    for (data::ItemId i : cands) s.push_back(-static_cast<double>(i));
    return s;
  }
  std::unique_ptr<Recommender> Clone() const override {
    return std::make_unique<LowIdFirst>(*this);
  }
};

TEST(MetricsTest, RandomFloorValue) {
  EvalProtocol protocol;
  protocol.top_k = 10;
  protocol.num_negatives = 50;
  EXPECT_NEAR(RandomHitRate(protocol), 10.0 / 51.0, 1e-12);
}

TEST(MetricsTest, PerfectOracleGetsFullMarks) {
  // Oracle: the held-out item always has the lowest id among candidates
  // because negatives are drawn from unseen items; construct a dataset
  // where the held-out item is item 0 for everyone.
  data::Dataset d(5, 50);
  for (data::UserId u = 0; u < 5; ++u) {
    d.AddSequence(u, {10 + u, 20 + u, 0});
  }
  auto split = data::SplitLeaveOneOut(d);
  LowIdFirst oracle;
  RankingQuality q = EvaluateRanking(oracle, d, split.test);
  EXPECT_EQ(q.num_evaluated, 5u);
  EXPECT_DOUBLE_EQ(q.hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(q.ndcg, 1.0);  // rank 0 -> 1/log2(2) = 1
}

TEST(MetricsTest, EmptyHeldoutIsZero) {
  data::Dataset d(2, 10);
  d.AddSequence(0, {1, 2});
  LowIdFirst oracle;
  RankingQuality q = EvaluateRanking(oracle, d, {});
  EXPECT_EQ(q.num_evaluated, 0u);
  EXPECT_EQ(q.hit_rate, 0.0);
}

TEST(MetricsTest, ConstantScorerGetsNoCredit) {
  // Ties count against the held-out item, so a constant scorer misses.
  class Constant : public LowIdFirst {
   public:
    std::vector<double> Score(
        data::UserId,
        const std::vector<data::ItemId>& cands) const override {
      return std::vector<double>(cands.size(), 1.0);
    }
  };
  data::Dataset d(4, 100);
  for (data::UserId u = 0; u < 4; ++u) {
    d.AddSequence(u, {u + 1, u + 2, u + 3});
  }
  auto split = data::SplitLeaveOneOut(d);
  Constant scorer;
  EvalProtocol protocol;
  protocol.top_k = 5;
  RankingQuality q = EvaluateRanking(scorer, d, split.test, protocol);
  EXPECT_DOUBLE_EQ(q.hit_rate, 0.0);
}

// A held-out user who has seen every item leaves no negative to draw:
// the call returns, the event is skipped, and the other events draw the
// same negatives as without it.
TEST(MetricsTest, UserWhoHasSeenEveryItemIsSkipped) {
  data::Dataset d(4, 12);
  for (data::UserId u = 0; u < 3; ++u) d.AddSequence(u, {u + 1, u + 4, 2});
  std::vector<data::ItemId> everything;
  for (data::ItemId i = 0; i < 12; ++i) everything.push_back(11 - i);
  d.AddSequence(3, everything);
  const std::vector<data::Interaction> ordinary = {
      {0, 2, 2}, {1, 2, 2}, {2, 2, 2}};
  const std::vector<data::Interaction> with_full_user = {
      {0, 2, 2}, {3, 0, 11}, {1, 2, 2}, {2, 2, 2}};
  EvalProtocol protocol;
  protocol.top_k = 3;
  protocol.num_negatives = 5;
  LowIdFirst scorer;
  const RankingQuality want = EvaluateRanking(scorer, d, ordinary, protocol);
  const RankingQuality got =
      EvaluateRanking(scorer, d, with_full_user, protocol);
  EXPECT_EQ(got.num_evaluated, 3u);
  EXPECT_EQ(got.hit_rate, want.hit_rate);
  EXPECT_EQ(got.ndcg, want.ndcg);
}

// An ordinary log's quality, pinned to the values it had before events
// without a negative were skipped: no other event's draws may move.
TEST(MetricsTest, OrdinaryLogQualityIsPinned) {
  data::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_interactions = 900;
  cfg.seed = 3;
  data::Dataset full = data::GenerateSynthetic(cfg);
  auto split = data::SplitLeaveOneOut(full);
  LowIdFirst scorer;
  const RankingQuality q = EvaluateRanking(scorer, full, split.test);
  EXPECT_EQ(q.num_evaluated, 60u);
  EXPECT_EQ(q.hit_rate, 16.0 / 60.0);
  EXPECT_EQ(q.ndcg, 0.12903397039048853);
}

// Testbed sanity: every algorithm, fitted on a structured log, must beat
// the random floor on held-out next items — the precondition for the
// attack experiments to be meaningful.
class RankerQualityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RankerQualityTest, BeatsRandomFloor) {
  data::SyntheticConfig cfg;
  cfg.num_users = 150;
  cfg.num_items = 80;
  cfg.num_interactions = 3500;
  cfg.num_clusters = 8;
  cfg.cluster_affinity = 0.75;
  cfg.seed = 77;
  data::Dataset full = data::GenerateSynthetic(cfg);
  auto split = data::SplitLeaveOneOut(full);

  FitConfig fit;
  fit.embedding_dim = 12;
  fit.epochs = 10;
  fit.seed = 5;
  auto ranker = MakeRecommender(GetParam(), fit).value();
  ranker->Fit(split.train);

  EvalProtocol protocol;
  protocol.top_k = 10;
  protocol.num_negatives = 40;
  RankingQuality q = EvaluateRanking(*ranker, full, split.test, protocol);
  EXPECT_GT(q.num_evaluated, 100u);
  EXPECT_GT(q.hit_rate, 1.3 * RandomHitRate(protocol))
      << GetParam() << " HR@10 = " << q.hit_rate << " vs random "
      << RandomHitRate(protocol);
  EXPECT_GT(q.ndcg, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RankerQualityTest,
                         ::testing::ValuesIn(AllRecommenderNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace poisonrec::rec
