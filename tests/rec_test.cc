// Recommender tests. A parameterized suite runs the behavioral contract
// against all 8 algorithms: fit beats random ranking, clones are
// independent, incremental poisoning promotes clicked items. Per-model
// tests cover algorithm-specific semantics.
#include "rec/registry.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "data/synthetic.h"
#include "rec/bpr.h"
#include "rec/covisitation.h"
#include "rec/gru4rec.h"
#include "rec/itempop.h"
#include "rec/neumf.h"
#include "rec/ngcf.h"
#include "rec/pmf.h"
#include "util/random.h"

namespace poisonrec::rec {
namespace {

// Small but structured log: 60 users, 30 items (2 reserved cold), cluster
// structure for sequence-aware models.
data::Dataset TestLog() {
  data::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 28;
  cfg.num_interactions = 900;
  cfg.num_clusters = 4;
  cfg.seed = 21;
  data::Dataset base = data::GenerateSynthetic(cfg);
  data::Dataset padded(72, 30);  // room for 12 fake users + 2 cold items
  for (data::UserId u = 0; u < base.num_users(); ++u) {
    padded.AddSequence(u, base.Sequence(u));
  }
  return padded;
}

FitConfig FastConfig() {
  FitConfig cfg;
  cfg.embedding_dim = 8;
  cfg.epochs = 6;
  cfg.update_epochs = 4;
  cfg.seed = 31;
  return cfg;
}

class AllRecommendersTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllRecommendersTest, FactoryProducesCorrectName) {
  auto rec = MakeRecommender(GetParam(), FastConfig());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->Name(), GetParam());
}

TEST_P(AllRecommendersTest, ScoresAlignWithCandidates) {
  auto rec = MakeRecommender(GetParam(), FastConfig()).value();
  data::Dataset log = TestLog();
  rec->Fit(log);
  std::vector<data::ItemId> cands = {0, 5, 29, 7};
  auto scores = rec->Score(3, cands);
  EXPECT_EQ(scores.size(), cands.size());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST_P(AllRecommendersTest, TopKReturnsKDistinctCandidates) {
  auto rec = MakeRecommender(GetParam(), FastConfig()).value();
  data::Dataset log = TestLog();
  rec->Fit(log);
  std::vector<data::ItemId> cands;
  for (data::ItemId i = 0; i < 20; ++i) cands.push_back(i);
  auto top = rec->RecommendTopK(2, cands, 5);
  ASSERT_EQ(top.size(), 5u);
  std::vector<data::ItemId> sorted = top;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (data::ItemId i : top) {
    EXPECT_TRUE(std::find(cands.begin(), cands.end(), i) != cands.end());
  }
}

TEST_P(AllRecommendersTest, CloneScoresIdentically) {
  auto rec = MakeRecommender(GetParam(), FastConfig()).value();
  data::Dataset log = TestLog();
  rec->Fit(log);
  auto clone = rec->Clone();
  std::vector<data::ItemId> cands = {1, 4, 9, 16, 25};
  auto a = rec->Score(7, cands);
  auto b = clone->Score(7, cands);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << GetParam();
  }
}

TEST_P(AllRecommendersTest, UpdateOnCloneLeavesOriginalUntouched) {
  auto rec = MakeRecommender(GetParam(), FastConfig()).value();
  data::Dataset log = TestLog();
  rec->Fit(log);
  std::vector<data::ItemId> cands = {1, 4, 9, 29};
  auto before = rec->Score(7, cands);
  auto clone = rec->Clone();
  data::Dataset poison(72, 30);
  for (data::UserId u = 60; u < 64; ++u) {
    for (int c = 0; c < 10; ++c) poison.Add(u, 29);
  }
  clone->Update(poison);
  auto after_original = rec->Score(7, cands);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after_original[i]) << GetParam();
  }
}

// Scores of every item for the first ten users, flattened.
std::vector<double> AllScores(const Recommender& ranker) {
  std::vector<data::ItemId> items(30);
  for (data::ItemId i = 0; i < items.size(); ++i) items[i] = i;
  std::vector<double> scores;
  for (data::UserId u = 0; u < 10; ++u) {
    for (double s : ranker.Score(u, items)) scores.push_back(s);
  }
  return scores;
}

bool SameScoreBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The embedding table a neural ranker exposes (AutoRec exposes none).
const nn::Tensor* ExposedTable(const Recommender& ranker) {
  if (const auto* r = dynamic_cast<const NeuMf*>(&ranker)) {
    return &r->ItemEmbeddings();
  }
  if (const auto* r = dynamic_cast<const Gru4Rec*>(&ranker)) {
    return &r->ItemEmbeddings();
  }
  if (const auto* r = dynamic_cast<const Ngcf*>(&ranker)) {
    return &r->NodeEmbeddings();
  }
  return nullptr;
}

// A neural ranker's clone copies the fitted parameters bit for bit into
// buffers of its own: it scores exactly as its source, and training it
// leaves the source's scores unchanged.
TEST(NeuralCloneTest, CopiesParametersIntoBuffersOfItsOwn) {
  for (const char* name : {"NeuMF", "AutoRec", "GRU4Rec", "NGCF"}) {
    auto ranker = MakeRecommender(name, FastConfig()).value();
    ranker->Fit(TestLog());
    const std::vector<double> before = AllScores(*ranker);
    std::unique_ptr<Recommender> clone = ranker->Clone();
    EXPECT_TRUE(SameScoreBits(AllScores(*clone), before)) << name;
    if (const nn::Tensor* table = ExposedTable(*ranker)) {
      const nn::Tensor* copy = ExposedTable(*clone);
      ASSERT_NE(copy, nullptr) << name;
      EXPECT_TRUE(SameBits(copy->data(), table->data())) << name;
      EXPECT_NE(copy->data().data(), table->data().data()) << name;
      EXPECT_NE(copy->grad().data(), table->grad().data()) << name;
      EXPECT_TRUE(copy->requires_grad()) << name;
    }
    data::Dataset poison(72, 30);
    for (data::UserId u = 60; u < 64; ++u) {
      for (int c = 0; c < 10; ++c) poison.Add(u, 29);
    }
    clone->Update(poison);
    EXPECT_FALSE(SameScoreBits(AllScores(*clone), before)) << name;
    EXPECT_TRUE(SameScoreBits(AllScores(*ranker), before)) << name;
  }
}

// Behavioral contract: alternating fake clicks on a cold item and the
// most popular items (the classic shilling pattern) improve the cold
// item's average rank within a fixed candidate slate, for every
// algorithm. For the latent-factor models the effect is two-hop —
// attacker factors align with the popular direction, dragging the
// promoted item's embedding with them — which is exactly why the paper's
// Popular Attack beats Random Attack on those models.
TEST_P(AllRecommendersTest, PoisoningPromotesColdItem) {
  FitConfig cfg = FastConfig();
  cfg.update_epochs = 16;
  auto rec = MakeRecommender(GetParam(), cfg).value();
  data::Dataset log = TestLog();
  rec->Fit(log);
  const data::ItemId promoted = 28;  // cold
  const std::vector<data::ItemId> slate = {promoted, 29, 3,  6,  9, 12,
                                           15,       18, 21, 24, 27, 1};
  const int n_users = 20;
  auto measure = [&]() {
    double rank_total = 0.0;
    int control_wins = 0;  // promoted strictly beats the untouched cold 29
    for (data::UserId u = 0; u < n_users; ++u) {
      auto scores = rec->Score(u, slate);
      int rank = 0;
      for (std::size_t i = 1; i < slate.size(); ++i) {
        if (scores[i] > scores[0]) ++rank;
      }
      rank_total += rank;
      if (scores[0] > scores[1]) ++control_wins;  // slate[1] == item 29
    }
    return std::make_pair(rank_total / n_users, control_wins);
  };

  const auto [before, wins_before] = measure();
  const auto pops = log.ItemsByPopularity();
  const data::ItemId top1 = pops[pops.size() - 1];
  const data::ItemId top2 = pops[pops.size() - 2];
  data::Dataset poison(72, 30);
  for (data::UserId u = 60; u < 68; ++u) {
    for (int c = 0; c < 16; ++c) {
      poison.Add(u, c % 2 == 0 ? promoted : (c % 4 == 1 ? top1 : top2));
    }
  }
  rec->Update(poison);
  const auto [after, wins_after] = measure();
  // Universal contract: (a) the promoted item's mean rank never worsens,
  // and (b) either the rank strictly improves or the promoted item
  // strictly gains wins against the untouched cold control. How far the
  // rank moves is model-specific: ItemPop/CoVisitation jump to the top,
  // while ItemKNN's cosine damping makes it sybil-resistant at this
  // fleet size (rank flat, control wins up).
  EXPECT_LE(after, before + 1e-9)
      << GetParam() << " rank worsened (" << before << " -> " << after
      << ")";
  EXPECT_TRUE(after < before - 0.5 || wins_after > wins_before)
      << GetParam() << " showed no promotion: rank " << before << " -> "
      << after << ", control wins " << wins_before << " -> " << wins_after;
}

TEST_P(AllRecommendersTest, FittedBeatsColdItemsOnPopular) {
  // After fitting, the most popular item should outrank a cold item for
  // most users (all 8 algorithms encode popularity one way or another).
  auto rec = MakeRecommender(GetParam(), FastConfig()).value();
  data::Dataset log = TestLog();
  rec->Fit(log);
  const data::ItemId top_item = log.ItemsByPopularity().back();
  const data::ItemId cold_item = 29;
  int wins = 0;
  const int n_users = 20;
  for (data::UserId u = 0; u < n_users; ++u) {
    auto scores = rec->Score(u, {top_item, cold_item});
    if (scores[0] > scores[1]) ++wins;
  }
  EXPECT_GE(wins, 14) << GetParam();
}

// Score CHECKs every candidate against the fitted item count (TestLog's
// 30), so an id past the tables aborts instead of reading beyond them.
// The threadsafe style re-executes the binary for the child: earlier
// tests leave kernel-pool threads running, and a child forked from them
// would inherit the pool but none of its threads.
TEST_P(AllRecommendersTest, ItemIdPastTheFittedCountAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto rec = MakeRecommender(GetParam(), FastConfig()).value();
  rec->Fit(TestLog());
  EXPECT_DEATH(rec->Score(3, {0, 30}), "Check failed: .*\\(30 vs 30\\)");
}

// The rankers that keep a row per user (PMF, BPR, NeuMF, NGCF) CHECK the
// user id against TestLog's 72 as well. The others score an unknown user
// as one with no history.
TEST_P(AllRecommendersTest, UserIdPastTheFittedCountAbortsOnPerUserRows) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto rec = MakeRecommender(GetParam(), FastConfig()).value();
  rec->Fit(TestLog());
  const std::string name = GetParam();
  if (name == "PMF" || name == "BPR" || name == "NeuMF" || name == "NGCF") {
    EXPECT_DEATH(rec->Score(72, {0, 1}), "Check failed: .*\\(72 vs 72\\)");
  } else {
    for (double s : rec->Score(72, {0, 1})) EXPECT_TRUE(std::isfinite(s));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AllRecommendersTest,
                         ::testing::ValuesIn(ExtendedRecommenderNames()),
                         [](const auto& info) { return info.param; });

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto rec = MakeRecommender("svd++");
  EXPECT_EQ(rec.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, NamesListHasEight) {
  EXPECT_EQ(AllRecommenderNames().size(), 8u);
}

TEST(RegistryTest, ExtendedListAddsItemKnn) {
  EXPECT_EQ(ExtendedRecommenderNames().size(), 9u);
  EXPECT_EQ(ExtendedRecommenderNames().back(), "ItemKNN");
  EXPECT_TRUE(MakeRecommender("ItemKNN").ok());
}

TEST(RegistryTest, CaseInsensitive) {
  EXPECT_TRUE(MakeRecommender("itempop").ok());
  EXPECT_TRUE(MakeRecommender("NEUMF").ok());
}

// -- ItemPop specifics ------------------------------------------------------

TEST(ItemPopTest, ScoresEqualCounts) {
  data::Dataset d(2, 3);
  d.AddSequence(0, {0, 0, 1});
  ItemPop pop;
  pop.Fit(d);
  auto scores = pop.Score(0, {0, 1, 2});
  EXPECT_DOUBLE_EQ(scores[0], 2.0);
  EXPECT_DOUBLE_EQ(scores[1], 1.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);
}

TEST(ItemPopTest, UpdateAddsCounts) {
  data::Dataset d(2, 3);
  d.Add(0, 0);
  ItemPop pop;
  pop.Fit(d);
  data::Dataset poison(2, 3);
  poison.Add(1, 2);
  poison.Add(1, 2);
  pop.Update(poison);
  auto scores = pop.Score(0, {0, 2});
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores[1], 2.0);
}

TEST(ItemPopTest, NonPersonalized) {
  data::Dataset log = TestLog();
  ItemPop pop;
  pop.Fit(log);
  auto a = pop.Score(0, {1, 2, 3});
  auto b = pop.Score(42, {1, 2, 3});
  EXPECT_EQ(a, b);
}

// -- CoVisitation specifics -------------------------------------------------

TEST(CoVisitationTest, AdjacentClicksFormEdges) {
  data::Dataset d(1, 4);
  d.AddSequence(0, {0, 1, 2});
  CoVisitation cv;
  cv.Fit(d);
  EXPECT_DOUBLE_EQ(cv.CoVisits(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(cv.CoVisits(1, 0), 1.0);  // symmetric
  EXPECT_DOUBLE_EQ(cv.CoVisits(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(cv.CoVisits(0, 2), 0.0);  // not adjacent
}

TEST(CoVisitationTest, SelfLoopsIgnored) {
  data::Dataset d(1, 2);
  d.AddSequence(0, {1, 1, 1});
  CoVisitation cv;
  cv.Fit(d);
  EXPECT_DOUBLE_EQ(cv.CoVisits(1, 1), 0.0);
}

TEST(CoVisitationTest, ScoreUsesUserHistory) {
  data::Dataset d(2, 5);
  d.AddSequence(0, {0, 1});  // user 0 visited 0 and 1
  d.AddSequence(1, {3, 4});
  CoVisitation cv;
  cv.Fit(d);
  // Item 1 co-visits 0 once; for user 1 (history {3,4}) item 1 scores 0.
  auto s0 = cv.Score(0, {1});
  auto s1 = cv.Score(1, {1});
  EXPECT_GT(s0[0], 0.0);
  EXPECT_DOUBLE_EQ(s1[0], 0.0);
}

TEST(CoVisitationTest, InjectedCoVisitsPromote) {
  data::Dataset d(3, 6);
  d.AddSequence(0, {0, 1, 0, 1});
  d.AddSequence(1, {0, 2});
  CoVisitation cv;
  cv.Fit(d);
  // Poison: new user alternates item 0 and cold item 5.
  data::Dataset poison(3, 6);
  poison.AddSequence(2, {0, 5, 0, 5, 0, 5, 0, 5});
  cv.Update(poison);
  // User 1 has item 0 in history; cold item 5 should now score > item 4.
  auto scores = cv.Score(1, {5, 4});
  EXPECT_GT(scores[0], scores[1]);
}

// -- Factor models ----------------------------------------------------------

TEST(PmfTest, LearnsObservedPreferences) {
  // Two disjoint user groups with disjoint item sets.
  data::Dataset d(20, 10);
  Rng rng(77);
  for (data::UserId u = 0; u < 10; ++u) {
    for (int k = 0; k < 8; ++k) d.Add(u, rng.Index(5));  // items 0-4
  }
  for (data::UserId u = 10; u < 20; ++u) {
    for (int k = 0; k < 8; ++k) d.Add(u, 5 + rng.Index(5));  // items 5-9
  }
  FitConfig cfg = FastConfig();
  cfg.epochs = 20;
  Pmf pmf(cfg);
  pmf.Fit(d);
  // Group-0 users should prefer group-0 items.
  int correct = 0;
  for (data::UserId u = 0; u < 10; ++u) {
    auto s = pmf.Score(u, {2, 7});
    if (s[0] > s[1]) ++correct;
  }
  EXPECT_GE(correct, 8);
}

TEST(BprTest, RanksPositivesAboveUnseen) {
  data::Dataset d(20, 10);
  Rng rng(78);
  for (data::UserId u = 0; u < 10; ++u) {
    for (int k = 0; k < 8; ++k) d.Add(u, rng.Index(5));
  }
  for (data::UserId u = 10; u < 20; ++u) {
    for (int k = 0; k < 8; ++k) d.Add(u, 5 + rng.Index(5));
  }
  FitConfig cfg = FastConfig();
  cfg.epochs = 20;
  Bpr bpr(cfg);
  bpr.Fit(d);
  int correct = 0;
  for (data::UserId u = 10; u < 20; ++u) {
    auto s = bpr.Score(u, {7, 2});
    if (s[0] > s[1]) ++correct;
  }
  EXPECT_GE(correct, 8);
}

TEST(FactorModelTest, SampleNegativeAvoidsPositives) {
  std::unordered_set<data::ItemId> positives = {0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(79);
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    if (positives.count(SampleNegative(10, positives, &rng)) > 0) ++hits;
  }
  // 8 rejection attempts over 80% positives: a few fallbacks are expected,
  // but most draws must be genuine negatives.
  EXPECT_LT(hits, 60);
}

}  // namespace
}  // namespace poisonrec::rec
