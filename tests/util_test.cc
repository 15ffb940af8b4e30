// Unit tests for the util substrate: Status/StatusOr, Rng, stats, top-k,
// CSV, the byte codec.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/topk.h"

namespace poisonrec {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  POISONREC_ASSIGN_OR_RETURN(int h, Half(x));
  POISONREC_RETURN_NOT_OK(h > 100 ? Status::OutOfRange("big") : Status::OK());
  *out = h;
  return Status::OK();
}

TEST(StatusOrTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseMacros(11, &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(UseMacros(1000, &out).code(), StatusCode::kOutOfRange);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    auto v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, CategoricalFrequencies) {
  Rng rng(3);
  std::vector<double> weights = {1.0, 3.0};
  int counts[2] = {0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalFromLogitsMatchesSoftmax) {
  Rng rng(4);
  std::vector<double> logits = {0.0, std::log(3.0)};  // probs 0.25/0.75
  int counts[2] = {0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.CategoricalFromLogits(logits)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    auto picks = rng.SampleWithoutReplacement(20, 10);
    EXPECT_EQ(picks.size(), 10u);
    std::sort(picks.begin(), picks.end());
    EXPECT_EQ(std::unique(picks.begin(), picks.end()), picks.end());
    for (auto p : picks) EXPECT_LT(p, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(6);
  auto picks = rng.SampleWithoutReplacement(5, 5);
  std::sort(picks.begin(), picks.end());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(picks[i], i);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(7);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ZipfTest, HeadHeavierThanTail) {
  ZipfTable table(100, 1.0);
  EXPECT_GT(table.Pmf(0), table.Pmf(50));
  EXPECT_GT(table.Pmf(50), table.Pmf(99));
  double total = 0.0;
  for (std::size_t r = 0; r < 100; ++r) total += table.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SamplesFollowPmf) {
  ZipfTable table(10, 1.0);
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(&rng)];
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, table.Pmf(r), 0.01);
  }
}

TEST(StatsTest, RunningMatchesBatch) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  RunningStats rs;
  for (double x : xs) rs.AddTracked(x);
  EXPECT_NEAR(rs.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), StdDev(xs), 1e-12);
  EXPECT_EQ(rs.min(), 1.0);
  EXPECT_EQ(rs.max(), 10.0);
}

TEST(StatsTest, NormalizeRewardsZeroMeanUnitStd) {
  std::vector<double> r = {10.0, 20.0, 30.0, 40.0};
  NormalizeRewards(&r);
  EXPECT_NEAR(Mean(r), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(r), 1.0, 1e-12);
}

TEST(StatsTest, NormalizeConstantBatchIsZero) {
  std::vector<double> r = {5.0, 5.0, 5.0};
  NormalizeRewards(&r);
  for (double v : r) EXPECT_EQ(v, 0.0);
}

TEST(StatsTest, EmptyVectors) {
  std::vector<double> r;
  NormalizeRewards(&r);  // no crash
  EXPECT_EQ(Mean(r), 0.0);
  EXPECT_EQ(StdDev(r), 0.0);
}

TEST(StatsTest, MaskedNormalizeUsesValidEntriesOnly) {
  // The invalid entry (999) must not skew the statistics, and must come
  // out as exactly zero advantage.
  std::vector<double> r = {10.0, 999.0, 20.0, 30.0, 40.0};
  const std::vector<char> valid = {1, 0, 1, 1, 1};
  NormalizeRewards(&r, valid);
  EXPECT_EQ(r[1], 0.0);
  std::vector<double> expected = {10.0, 20.0, 30.0, 40.0};
  NormalizeRewards(&expected);
  EXPECT_NEAR(r[0], expected[0], 1e-12);
  EXPECT_NEAR(r[2], expected[1], 1e-12);
  EXPECT_NEAR(r[3], expected[2], 1e-12);
  EXPECT_NEAR(r[4], expected[3], 1e-12);
}

TEST(StatsTest, MaskedNormalizeDegenerateCasesAreZero) {
  // Fewer than two valid entries: everything is zeroed.
  std::vector<double> one = {7.0, 3.0};
  NormalizeRewards(&one, {1, 0});
  EXPECT_EQ(one[0], 0.0);
  EXPECT_EQ(one[1], 0.0);
  // Constant valid entries: zero too.
  std::vector<double> constant = {5.0, 9.0, 5.0};
  NormalizeRewards(&constant, {1, 0, 1});
  for (double v : constant) EXPECT_EQ(v, 0.0);
}

TEST(TopKTest, OrdersByScoreDescending) {
  std::vector<double> scores = {0.1, 0.9, 0.5, 0.7};
  auto top = TopKIndices(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 3u);
}

TEST(TopKTest, TieBrokenByIndex) {
  std::vector<double> scores = {1.0, 1.0, 1.0};
  auto top = TopKIndices(scores, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(TopKTest, KLargerThanSize) {
  std::vector<double> scores = {0.3, 0.1};
  auto top = TopKIndices(scores, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);
}

TEST(TopKTest, ByScoreMapsIds) {
  std::vector<int> ids = {100, 200, 300};
  std::vector<double> scores = {0.5, 0.9, 0.1};
  auto top = TopKByScore(ids, scores, 2);
  EXPECT_EQ(top[0], 200);
  EXPECT_EQ(top[1], 100);
}

TEST(CsvTest, RoundTrip) {
  const std::string path =
      std::filesystem::temp_directory_path() / "poisonrec_csv_test.csv";
  std::vector<std::vector<std::string>> rows = {{"a", "1"}, {"b", "2"}};
  ASSERT_TRUE(WriteCsv(path, rows).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto loaded = ReadCsv("/nonexistent/definitely/missing.csv");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, SplitHandlesEmptyFields) {
  auto fields = SplitCsvLine("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

template <typename T>
std::string MemcpyBytes(T v) {
  std::string bytes(sizeof(T), '\0');
  std::memcpy(bytes.data(), &v, sizeof(T));
  return bytes;
}

TEST(BytesTest, EveryFieldRoundTripsAsItsMemcpy) {
  const std::vector<float> floats = {1.5f, -0.0f,
                                     std::numeric_limits<float>::denorm_min()};
  std::string bytes;
  ByteWriter out(&bytes);
  out.U8(0xa5);
  out.U32(0xdeadbeefu);
  out.U64(0x0123456789abcdefull);
  out.I32(-7);
  out.F64(-2.25);
  out.Floats(floats);
  out.Blob(std::string_view("blob\0bytes", 10));

  std::string expected = MemcpyBytes<std::uint8_t>(0xa5) +
                         MemcpyBytes<std::uint32_t>(0xdeadbeefu) +
                         MemcpyBytes<std::uint64_t>(0x0123456789abcdefull) +
                         MemcpyBytes<std::int32_t>(-7) +
                         MemcpyBytes<double>(-2.25);
  for (float f : floats) expected += MemcpyBytes(f);
  expected += MemcpyBytes<std::uint64_t>(10) + std::string("blob\0bytes", 10);
  EXPECT_EQ(bytes, expected);

  ByteReader in(bytes);
  EXPECT_EQ(in.U8(), 0xa5);
  EXPECT_EQ(in.U32(), 0xdeadbeefu);
  EXPECT_EQ(in.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(in.I32(), -7);
  EXPECT_EQ(in.F64(), -2.25);
  std::vector<float> back(floats.size());
  in.Floats(&back);
  EXPECT_EQ(std::memcmp(back.data(), floats.data(), sizeof(float) * 3), 0);
  EXPECT_EQ(in.Blob(), std::string_view("blob\0bytes", 10));
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.U8(), 0);  // one byte past the end
  EXPECT_FALSE(in.ok());
}

TEST(BytesTest, ReadsPastTheEndStayFailed) {
  std::string bytes;
  ByteWriter(&bytes).U32(7);
  ByteReader in(bytes);
  EXPECT_EQ(in.U64(), 0u);  // needs 8 of the 4 bytes
  EXPECT_FALSE(in.ok());
  // Later reads that would fit the unread bytes still fail.
  EXPECT_EQ(in.U32(), 0u);
  EXPECT_EQ(in.U8(), 0u);
  std::vector<float> floats(1, 3.0f);
  in.Floats(&floats);
  EXPECT_EQ(floats[0], 3.0f);
  EXPECT_TRUE(in.Blob().empty());
  EXPECT_FALSE(in.ok());
}

TEST(BytesTest, CountLargerThanTheBytesLeftFailsWithoutAllocating) {
  std::string bytes;
  ByteWriter out(&bytes);
  out.U64(3);  // three 8-byte elements claimed, two present
  out.F64(1.0);
  out.F64(2.0);
  ByteReader in(bytes);
  std::vector<double> values;
  values.resize(in.Count(sizeof(double)));
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(values.capacity(), 0u);

  // The largest counts and lengths cannot wrap the bound either.
  for (const std::uint64_t huge : {std::numeric_limits<std::uint64_t>::max(),
                                   std::uint64_t{(1ull << 63) - 16}}) {
    std::string blob;
    ByteWriter(&blob).U64(huge);
    ByteReader count(blob);
    EXPECT_EQ(count.Count(1), 0u);
    EXPECT_FALSE(count.ok());
    ByteReader length(blob);
    EXPECT_TRUE(length.Blob().empty());
    EXPECT_FALSE(length.ok());
  }

  // A count that exactly fits is fine.
  std::string two;
  ByteWriter(&two).U64(2);
  two += bytes.substr(8);
  ByteReader fits(two);
  EXPECT_EQ(fits.Count(sizeof(double)), 2u);
  EXPECT_TRUE(fits.ok());
}

}  // namespace
}  // namespace poisonrec
