// Dataset / split / synthetic-generator / CSV tests.
#include "data/dataset.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/csv.h"

namespace poisonrec::data {
namespace {

TEST(DatasetTest, AddAndQuery) {
  Dataset d(3, 5);
  d.Add(0, 1);
  d.Add(0, 2);
  d.Add(2, 1);
  EXPECT_EQ(d.num_users(), 3u);
  EXPECT_EQ(d.num_items(), 5u);
  EXPECT_EQ(d.num_interactions(), 3u);
  EXPECT_EQ(d.Sequence(0).size(), 2u);
  EXPECT_EQ(d.Sequence(1).size(), 0u);
  EXPECT_EQ(d.ItemPopularity()[1], 2u);
  EXPECT_EQ(d.ItemPopularity()[0], 0u);
}

TEST(DatasetTest, CapacityExceedsUsage) {
  // Cold items/users (the attack setting) are representable.
  Dataset d(10, 10);
  d.Add(0, 0);
  EXPECT_EQ(d.num_users(), 10u);
  EXPECT_EQ(d.ItemPopularity()[9], 0u);
}

TEST(DatasetTest, ItemsByPopularityAscending) {
  Dataset d(1, 3);
  d.AddSequence(0, {2, 2, 2, 0, 0, 1});
  auto order = d.ItemsByPopularity();
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 2u);
}

TEST(DatasetTest, ItemsByPopularityTieById) {
  Dataset d(1, 3);
  d.AddSequence(0, {1, 2});
  auto order = d.ItemsByPopularity();
  EXPECT_EQ(order[0], 0u);  // count 0
  EXPECT_EQ(order[1], 1u);  // count 1, lower id first
  EXPECT_EQ(order[2], 2u);
}

TEST(DatasetTest, AllInteractionsOrdered) {
  Dataset d(2, 4);
  d.AddSequence(0, {3, 1});
  d.AddSequence(1, {2});
  auto all = d.AllInteractions();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].user, 0u);
  EXPECT_EQ(all[0].item, 3u);
  EXPECT_EQ(all[0].position, 0u);
  EXPECT_EQ(all[1].position, 1u);
  EXPECT_EQ(all[2].user, 1u);
}

TEST(DatasetTest, UsersWithMinLength) {
  Dataset d(3, 3);
  d.AddSequence(0, {0, 1, 2});
  d.AddSequence(1, {0});
  auto users = d.UsersWithMinLength(2);
  ASSERT_EQ(users.size(), 1u);
  EXPECT_EQ(users[0], 0u);
}

TEST(SplitTest, LeaveOneOutSemantics) {
  Dataset d(2, 10);
  d.AddSequence(0, {1, 2, 3, 4});  // 4 events: 2 train, 1 valid, 1 test
  d.AddSequence(1, {5, 6});        // < 3 events: all train
  auto split = SplitLeaveOneOut(d);
  EXPECT_EQ(split.train.Sequence(0), (std::vector<ItemId>{1, 2}));
  EXPECT_EQ(split.train.Sequence(1), (std::vector<ItemId>{5, 6}));
  ASSERT_EQ(split.validation.size(), 1u);
  EXPECT_EQ(split.validation[0].item, 3u);
  ASSERT_EQ(split.test.size(), 1u);
  EXPECT_EQ(split.test[0].item, 4u);
}

TEST(SplitTest, PreservesCapacities) {
  Dataset d(4, 7);
  d.AddSequence(0, {1, 2, 3});
  auto split = SplitLeaveOneOut(d);
  EXPECT_EQ(split.train.num_users(), 4u);
  EXPECT_EQ(split.train.num_items(), 7u);
}

TEST(CsvIoTest, RoundTrip) {
  Dataset d(2, 3);
  d.AddSequence(0, {0, 2});
  d.AddSequence(1, {1});
  const std::string path =
      std::filesystem::temp_directory_path() / "poisonrec_ds.csv";
  ASSERT_TRUE(SaveDatasetCsv(d, path).ok());
  auto loaded = LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_interactions(), 3u);
  EXPECT_EQ(loaded->Sequence(0), (std::vector<ItemId>{0, 2}));
  std::remove(path.c_str());
}

TEST(CsvIoTest, RejectsBadIds) {
  // Each bad row follows a good one. A negative id must not read as
  // 2^64 - 1, and neither it, 2^64 - 1 itself (whose id space, max + 1,
  // wraps to 0) nor an id past 2^64 may reach Dataset::Add's CHECK.
  const std::string path =
      std::filesystem::temp_directory_path() / "poisonrec_bad.csv";
  const std::vector<std::vector<std::string>> bad_rows = {
      {"x", "1"},
      {"-1", "2"},
      {"0", "-1"},
      {"18446744073709551615", "2"},
      {"0", "18446744073709551615"},
      {"99999999999999999999999", "2"}};
  for (const std::vector<std::string>& bad : bad_rows) {
    ASSERT_TRUE(WriteCsv(path, {{"0", "1"}, bad}).ok());
    auto loaded = LoadDatasetCsv(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << bad[0] << "," << bad[1];
  }
  std::remove(path.c_str());
}

TEST(SyntheticTest, HonorsCounts) {
  SyntheticConfig cfg;
  cfg.num_users = 50;
  cfg.num_items = 40;
  cfg.num_interactions = 600;
  cfg.seed = 9;
  Dataset d = GenerateSynthetic(cfg);
  EXPECT_EQ(d.num_users(), 50u);
  EXPECT_EQ(d.num_items(), 40u);
  // Interaction budget is met within rounding (floor allocation).
  EXPECT_GE(d.num_interactions(), 500u);
  EXPECT_LE(d.num_interactions(), 600u);
}

TEST(SyntheticTest, EveryUserHasMinLength) {
  SyntheticConfig cfg;
  cfg.num_users = 30;
  cfg.num_items = 20;
  cfg.num_interactions = 300;
  cfg.min_user_length = 3;
  cfg.seed = 10;
  Dataset d = GenerateSynthetic(cfg);
  for (UserId u = 0; u < d.num_users(); ++u) {
    EXPECT_GE(d.Sequence(u).size(), 3u);
  }
}

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticConfig cfg;
  cfg.num_users = 20;
  cfg.num_items = 15;
  cfg.num_interactions = 200;
  cfg.seed = 11;
  Dataset a = GenerateSynthetic(cfg);
  Dataset b = GenerateSynthetic(cfg);
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.Sequence(u), b.Sequence(u));
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig cfg;
  cfg.num_users = 20;
  cfg.num_items = 15;
  cfg.num_interactions = 200;
  cfg.seed = 12;
  Dataset a = GenerateSynthetic(cfg);
  cfg.seed = 13;
  Dataset b = GenerateSynthetic(cfg);
  bool any_diff = false;
  for (UserId u = 0; u < a.num_users() && !any_diff; ++u) {
    any_diff = a.Sequence(u) != b.Sequence(u);
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, PopularityIsLongTailed) {
  SyntheticConfig cfg;
  cfg.num_users = 200;
  cfg.num_items = 100;
  cfg.num_interactions = 5000;
  cfg.seed = 14;
  Dataset d = GenerateSynthetic(cfg);
  auto order = d.ItemsByPopularity();
  const auto& pop = d.ItemPopularity();
  // Top item should dominate the median item by a clear factor.
  const std::size_t top = pop[order.back()];
  const std::size_t median = pop[order[order.size() / 2]];
  EXPECT_GT(top, 3 * std::max<std::size_t>(1, median));
}

TEST(PresetTest, Table2CountsAtFullScale) {
  SyntheticConfig steam = PresetConfig(DatasetPreset::kSteam, 1.0);
  EXPECT_EQ(steam.num_users, 6506u);
  EXPECT_EQ(steam.num_items, 5134u);
  EXPECT_EQ(steam.num_interactions, 180721u);
  SyntheticConfig ml = PresetConfig(DatasetPreset::kMovieLens, 1.0);
  EXPECT_EQ(ml.num_users, 5999u);
  EXPECT_EQ(ml.num_items, 3706u);
  EXPECT_EQ(ml.num_interactions, 943317u);
  SyntheticConfig phone = PresetConfig(DatasetPreset::kPhone, 1.0);
  EXPECT_EQ(phone.num_users, 27879u);
  SyntheticConfig clothing = PresetConfig(DatasetPreset::kClothing, 1.0);
  EXPECT_EQ(clothing.num_items, 23033u);
}

TEST(PresetTest, ScalingIsProportional) {
  SyntheticConfig half = PresetConfig(DatasetPreset::kSteam, 0.5);
  EXPECT_NEAR(half.num_users, 3253.0, 1.0);
  EXPECT_NEAR(half.num_interactions, 90360.5, 1.0);
}

TEST(PresetTest, ParseNames) {
  EXPECT_EQ(*ParseDatasetPreset("steam"), DatasetPreset::kSteam);
  EXPECT_EQ(*ParseDatasetPreset("MovieLens"), DatasetPreset::kMovieLens);
  EXPECT_EQ(*ParseDatasetPreset("ml-1m"), DatasetPreset::kMovieLens);
  EXPECT_EQ(*ParseDatasetPreset("Phone"), DatasetPreset::kPhone);
  EXPECT_EQ(*ParseDatasetPreset("CLOTHING"), DatasetPreset::kClothing);
  EXPECT_FALSE(ParseDatasetPreset("netflix").ok());
}

TEST(PresetTest, NamesRoundTrip) {
  for (DatasetPreset p :
       {DatasetPreset::kSteam, DatasetPreset::kMovieLens,
        DatasetPreset::kPhone, DatasetPreset::kClothing}) {
    EXPECT_EQ(*ParseDatasetPreset(DatasetPresetName(p)), p);
  }
}

}  // namespace
}  // namespace poisonrec::data
