// Attack-environment tests: id-space expansion, RecNum semantics,
// candidate generation, poisoning effects, retrain modes.
#include "env/environment.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "rec/candidates.h"
#include "rec/itempop.h"
#include "rec/registry.h"

namespace poisonrec::env {
namespace {

data::Dataset SmallLog(std::uint64_t seed = 21) {
  data::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 30;
  cfg.num_interactions = 400;
  cfg.seed = seed;
  return data::GenerateSynthetic(cfg);
}

EnvironmentConfig SmallConfig() {
  EnvironmentConfig cfg;
  cfg.num_attackers = 4;
  cfg.trajectory_length = 6;
  cfg.num_target_items = 3;
  cfg.num_candidate_originals = 10;
  cfg.top_k = 5;
  cfg.seed = 17;
  return cfg;
}

TEST(CandidateGeneratorTest, SizeAndContents) {
  rec::RandomCandidateGenerator gen(100, {100, 101}, 10, 3);
  auto cands = gen.Candidates(5);
  EXPECT_EQ(cands.size(), 12u);
  // Targets always included, at the end.
  EXPECT_EQ(cands[10], 100u);
  EXPECT_EQ(cands[11], 101u);
  // Originals are in range and distinct.
  std::unordered_set<data::ItemId> seen;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_LT(cands[i], 100u);
    EXPECT_TRUE(seen.insert(cands[i]).second);
  }
}

TEST(CandidateGeneratorTest, DeterministicPerUser) {
  rec::RandomCandidateGenerator gen(100, {100}, 10, 3);
  EXPECT_EQ(gen.Candidates(7), gen.Candidates(7));
  EXPECT_NE(gen.Candidates(7), gen.Candidates(8));
}

TEST(CandidateGeneratorTest, CapsAtCatalogSize) {
  rec::RandomCandidateGenerator gen(5, {5}, 92, 3);
  auto cands = gen.Candidates(0);
  EXPECT_EQ(cands.size(), 6u);  // all 5 originals + target
}

TEST(PersonalizedCandidatesTest, SizeAndDeterminism) {
  auto log = SmallLog();
  rec::PersonalizedCandidateGenerator gen(log, log.num_items(), {30, 31},
                                          10);
  auto a = gen.Candidates(3);
  EXPECT_EQ(a.size(), 12u);
  EXPECT_EQ(a[10], 30u);
  EXPECT_EQ(a[11], 31u);
  EXPECT_EQ(gen.Candidates(3), a);
}

TEST(PersonalizedCandidatesTest, PrefersCoOccurringItems) {
  data::Dataset log(3, 6);
  log.AddSequence(0, {0, 1, 0, 1});  // user 0: 0 <-> 1 strongly linked
  log.AddSequence(1, {2, 3});
  log.AddSequence(2, {4, 5, 4, 5, 4, 5});
  rec::PersonalizedCandidateGenerator gen(log, 6, {}, 2);
  auto cands = gen.Candidates(0);
  ASSERT_EQ(cands.size(), 2u);
  // Item 1 co-occurs with user 0's history item 0 (and vice versa).
  EXPECT_TRUE(cands[0] == 0u || cands[0] == 1u);
  EXPECT_TRUE(cands[1] == 0u || cands[1] == 1u);
}

TEST(PersonalizedCandidatesTest, BackfillsThinHistories) {
  data::Dataset log(2, 5);
  log.AddSequence(0, {4});  // single click: no co-occurrence at all
  log.AddSequence(1, {0, 0, 0, 1, 1, 2});
  rec::PersonalizedCandidateGenerator gen(log, 5, {}, 3);
  auto cands = gen.Candidates(0);
  EXPECT_EQ(cands.size(), 3u);  // popularity backfill fills the quota
}

TEST(EnvironmentTest, PersonalizedCandidateModeWorks) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  EnvironmentConfig cfg = SmallConfig();
  cfg.personalized_candidates = true;
  AttackEnvironment env(SmallLog(), std::move(ranker), cfg);
  EXPECT_EQ(env.BaselineRecNum(), 0.0);
  std::vector<Trajectory> attack;
  for (std::size_t n = 0; n < 4; ++n) {
    attack.push_back({n, std::vector<data::ItemId>(6, 30)});
  }
  EXPECT_GT(env.Evaluate(attack), 0.0);
}

TEST(EnvironmentTest, ExpandsIdSpaces) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  EXPECT_EQ(env.num_original_items(), 30u);
  EXPECT_EQ(env.num_total_items(), 33u);
  ASSERT_EQ(env.target_items().size(), 3u);
  EXPECT_EQ(env.target_items()[0], 30u);
  EXPECT_EQ(env.target_items()[2], 32u);
  EXPECT_EQ(env.AttackerUserId(0), 40u);
  EXPECT_EQ(env.AttackerUserId(3), 43u);
  EXPECT_EQ(env.dataset().num_users(), 44u);
}

TEST(EnvironmentTest, TargetsStartCold) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  for (data::ItemId t : env.target_items()) {
    EXPECT_EQ(env.item_popularity()[t], 0u);
  }
}

TEST(EnvironmentTest, BaselineRecNumIsZeroForColdTargetsOnItemPop) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  EXPECT_EQ(env.BaselineRecNum(), 0.0);
}

TEST(EnvironmentTest, EvaluateIsRepeatable) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  std::vector<Trajectory> attack;
  for (std::size_t n = 0; n < 4; ++n) {
    attack.push_back({n, {30, 31, 30, 31, 30, 31}});
  }
  EXPECT_EQ(env.Evaluate(attack), env.Evaluate(attack));
}

TEST(EnvironmentTest, TargetOnlyClicksBeatNoAttackOnItemPop) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  std::vector<Trajectory> attack;
  for (std::size_t n = 0; n < 4; ++n) {
    attack.push_back({n, std::vector<data::ItemId>(6, 30)});
  }
  EXPECT_GT(env.Evaluate(attack), env.BaselineRecNum());
}

TEST(EnvironmentTest, RecNumBoundedByUsersTimesMin) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  EnvironmentConfig cfg = SmallConfig();
  auto log = SmallLog();
  AttackEnvironment env(log, std::move(ranker), cfg);
  std::vector<Trajectory> attack;
  for (std::size_t n = 0; n < 4; ++n) {
    attack.push_back({n, {30, 31, 32, 30, 31, 32}});
  }
  const double rec_num = env.Evaluate(attack);
  const double bound = static_cast<double>(log.num_users()) *
                       std::min<std::size_t>(cfg.top_k, 3);
  EXPECT_LE(rec_num, bound);
  EXPECT_GE(rec_num, 0.0);
}

TEST(EnvironmentTest, EvaluateDoesNotMutatePretrainedSystem) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  const double before = env.BaselineRecNum();
  std::vector<Trajectory> attack;
  for (std::size_t n = 0; n < 4; ++n) {
    attack.push_back({n, std::vector<data::ItemId>(6, 30)});
  }
  env.Evaluate(attack);
  EXPECT_EQ(env.BaselineRecNum(), before);
}

TEST(EnvironmentTest, MoreClicksMoreExposureOnItemPop) {
  // ItemPop RecNum is monotone in the number of target clicks.
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  double prev = env.BaselineRecNum();
  for (std::size_t attackers = 1; attackers <= 4; ++attackers) {
    std::vector<Trajectory> attack;
    for (std::size_t n = 0; n < attackers; ++n) {
      attack.push_back({n, std::vector<data::ItemId>(6, 30)});
    }
    const double now = env.Evaluate(attack);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(EnvironmentTest, FullRetrainModeAlsoPromotes) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  EnvironmentConfig cfg = SmallConfig();
  cfg.full_retrain = true;
  AttackEnvironment env(SmallLog(), std::move(ranker), cfg);
  std::vector<Trajectory> attack;
  for (std::size_t n = 0; n < 4; ++n) {
    attack.push_back({n, std::vector<data::ItemId>(6, 30)});
  }
  EXPECT_GT(env.Evaluate(attack), env.BaselineRecNum());
}

TEST(EnvironmentTest, MaxEvalUsersScalesDownRecNum) {
  EnvironmentConfig cfg = SmallConfig();
  cfg.max_eval_users = 10;
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), cfg);
  std::vector<Trajectory> attack;
  for (std::size_t n = 0; n < 4; ++n) {
    attack.push_back({n, {30, 31, 32, 30, 31, 32}});
  }
  EXPECT_LE(env.Evaluate(attack), 10.0 * 3.0);
}

TEST(EnvironmentTest, RecNumForExternallyPoisonedRanker) {
  auto ranker = rec::MakeRecommender("ItemPop").value();
  AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
  auto poisoned = env.pretrained_ranker().Clone();
  data::Dataset poison(44, 33);
  for (int c = 0; c < 50; ++c) poison.Add(40, 30);
  poisoned->Update(poison);
  EXPECT_GT(env.RecNum(*poisoned), env.BaselineRecNum());
}

// RecNum counted from lists drawn afresh: each real user with history gets
// `gen`'s candidates, as RecNum did before it kept the lists.
double RecNumFromFreshLists(const AttackEnvironment& env,
                            const rec::CandidateGenerator& gen,
                            const rec::Recommender& ranker,
                            std::size_t num_real_users) {
  const std::vector<data::ItemId>& targets = env.target_items();
  double rec_num = 0.0;
  for (data::UserId u = 0; u < num_real_users; ++u) {
    if (env.dataset().Sequence(u).empty()) continue;
    for (data::ItemId item :
         ranker.RecommendTopK(u, gen.Candidates(u), env.config().top_k)) {
      if (std::find(targets.begin(), targets.end(), item) != targets.end()) {
        rec_num += 1.0;
      }
    }
  }
  return rec_num;
}

// ItemPop after a few target clicks: item 30 is about as popular as the
// log's items, so whether it reaches a user's top 5 depends on the list.
std::unique_ptr<rec::Recommender> MildlyPoisoned(
    const AttackEnvironment& env) {
  std::unique_ptr<rec::Recommender> poisoned = env.pretrained_ranker().Clone();
  data::Dataset poison(44, 33);
  for (int c = 0; c < 14; ++c) poison.Add(40, 30);
  for (int c = 0; c < 6; ++c) poison.Add(41, 31);
  poisoned->Update(poison);
  return poisoned;
}

TEST(EnvironmentTest, RecNumOverKeptListsEqualsFreshCandidates) {
  for (const bool personalized : {false, true}) {
    EnvironmentConfig cfg = SmallConfig();
    cfg.personalized_candidates = personalized;
    const data::Dataset log = SmallLog();
    AttackEnvironment env(log, rec::MakeRecommender("ItemPop").value(), cfg);
    std::unique_ptr<rec::CandidateGenerator> gen;
    if (personalized) {
      gen = std::make_unique<rec::PersonalizedCandidateGenerator>(
          env.dataset(), env.num_original_items(), env.target_items(),
          cfg.num_candidate_originals);
    } else {
      gen = std::make_unique<rec::RandomCandidateGenerator>(
          env.num_original_items(), env.target_items(),
          cfg.num_candidate_originals, cfg.seed);
    }
    const std::unique_ptr<rec::Recommender> poisoned = MildlyPoisoned(env);
    const double expected =
        RecNumFromFreshLists(env, *gen, *poisoned, log.num_users());
    EXPECT_GT(expected, 0.0) << "personalized " << personalized;
    // The first call builds the lists, the later ones reuse them.
    EXPECT_EQ(env.RecNum(*poisoned), expected) << "personalized "
                                               << personalized;
    EXPECT_EQ(env.RecNum(env.pretrained_ranker()),
              RecNumFromFreshLists(env, *gen, env.pretrained_ranker(),
                                   log.num_users()));
    EXPECT_EQ(env.RecNum(*poisoned), expected) << "personalized "
                                               << personalized;
  }
}

TEST(EnvironmentTest, ConcurrentFirstRecNumCallsAgree) {
  const data::Dataset log = SmallLog();
  AttackEnvironment env(log, rec::MakeRecommender("ItemPop").value(),
                        SmallConfig());
  const std::unique_ptr<rec::Recommender> poisoned = MildlyPoisoned(env);
  const double expected = RecNumFromFreshLists(
      env,
      rec::RandomCandidateGenerator(env.num_original_items(),
                                    env.target_items(),
                                    SmallConfig().num_candidate_originals,
                                    SmallConfig().seed),
      *poisoned, log.num_users());
  // Four threads make the environment's first RecNum calls at once.
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<double> got(kThreads, -1.0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[i] = env.RecNum(*poisoned);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(got[i], expected) << i;
}

TEST(EnvironmentTest, WorksAcrossAllRankers) {
  for (const std::string& name : rec::AllRecommenderNames()) {
    rec::FitConfig fit;
    fit.embedding_dim = 8;
    fit.epochs = 2;
    fit.update_epochs = 2;
    auto ranker = rec::MakeRecommender(name, fit).value();
    AttackEnvironment env(SmallLog(), std::move(ranker), SmallConfig());
    std::vector<Trajectory> attack;
    for (std::size_t n = 0; n < 4; ++n) {
      attack.push_back({n, {30, 0, 31, 1, 32, 2}});
    }
    const double rec_num = env.Evaluate(attack);
    EXPECT_GE(rec_num, 0.0) << name;
  }
}

}  // namespace
}  // namespace poisonrec::env
