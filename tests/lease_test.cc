// Unit tests for orch/lease.h: fencing-token monotonicity across the
// acquire / renew / release / seize lifecycle, driven by the injected
// test clock (no real sleeps).

#include <fcntl.h>
#include <sys/stat.h>

#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "orch/lease.h"
#include "util/status.h"

namespace poisonrec::orch {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(LeaseTest, DefaultWorkerIdIsStableAndPidPrefixed) {
  const std::string id = DefaultWorkerId();
  EXPECT_EQ(id, DefaultWorkerId());  // one nonce per process
  EXPECT_EQ(id[0], 'w');
  EXPECT_NE(id.find('-'), std::string::npos);
}

TEST(LeaseTest, FreshAcquireStartsAtTokenOne) {
  const std::string dir = TempDir("poisonrec_lease_fresh");
  LeaseManager leases(dir, "alpha", /*ttl_seconds=*/5.0);
  ASSERT_TRUE(leases.Init().ok());

  auto lease = leases.Acquire("c0");
  ASSERT_TRUE(lease.ok()) << lease.status();
  EXPECT_EQ(lease->owner, "alpha");
  EXPECT_EQ(lease->token, 1u);

  auto read = leases.Read("c0");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->owner, "alpha");
  EXPECT_EQ(read->token, 1u);
  EXPECT_DOUBLE_EQ(read->ttl_seconds, 5.0);

  // Idempotent re-acquire: still ours, same fencing epoch.
  auto again = leases.Acquire("c0");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->token, 1u);
  std::filesystem::remove_all(dir);
}

TEST(LeaseTest, ReleaseThenReacquireIncrementsToken) {
  const std::string dir = TempDir("poisonrec_lease_release");
  LeaseManager leases(dir, "alpha", 5.0);
  ASSERT_TRUE(leases.Init().ok());
  auto lease = leases.Acquire("c0");
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(leases.Release("c0", lease->token).ok());

  auto released = leases.Read("c0");
  ASSERT_TRUE(released.ok());
  EXPECT_TRUE(released->owner.empty());
  EXPECT_EQ(released->token, 1u);  // token survives release

  auto next = leases.Acquire("c0");
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->token, 2u);  // every acquisition is a new epoch
  std::filesystem::remove_all(dir);
}

TEST(LeaseTest, LiveSiblingLeaseIsUnavailable) {
  const std::string dir = TempDir("poisonrec_lease_live");
  LeaseManager alpha(dir, "alpha", 5.0);
  LeaseManager beta(dir, "beta", 5.0);
  ASSERT_TRUE(alpha.Init().ok());
  ASSERT_TRUE(alpha.Acquire("c0").ok());

  auto claim = beta.Acquire("c0");
  ASSERT_FALSE(claim.ok());
  EXPECT_EQ(claim.status().code(), StatusCode::kUnavailable);

  auto read = beta.Read("c0");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(beta.Seizable("c0"));
  EXPECT_TRUE(alpha.Seizable("c0"));  // our own lease is always claimable
  std::filesystem::remove_all(dir);
}

TEST(LeaseTest, ExpiredLeaseIsSeizedAndStaleOwnerIsFenced) {
  const std::string dir = TempDir("poisonrec_lease_seize");
  LeaseManager alpha(dir, "alpha", /*ttl_seconds=*/5.0);
  LeaseManager beta(dir, "beta", 5.0);
  ASSERT_TRUE(alpha.Init().ok());
  double now = 100.0;
  alpha.SetClockForTest([&now] { return now; });
  beta.SetClockForTest([&now] { return now; });

  auto held = alpha.Acquire("c0");
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held->token, 1u);

  // Within ttl the lease is solid: renewable by alpha, opaque to beta.
  now = 103.0;
  ASSERT_TRUE(alpha.Renew("c0", held->token).ok());
  EXPECT_EQ(beta.Acquire("c0").status().code(), StatusCode::kUnavailable);

  // Heartbeats stop (SIGSTOP / crash); past the ttl beta seizes with an
  // incremented fencing token.
  now = 109.0;  // 6s since alpha's renewal at 103 > ttl 5
  auto probe = beta.Read("c0");
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(beta.Seizable("c0"));
  auto seized = beta.Acquire("c0");
  ASSERT_TRUE(seized.ok()) << seized.status();
  EXPECT_EQ(seized->owner, "beta");
  EXPECT_EQ(seized->token, 2u);

  // The zombie's every write path now fails the fencing check.
  EXPECT_EQ(alpha.Renew("c0", 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(alpha.Validate("c0", 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(alpha.Release("c0", 1).code(), StatusCode::kFailedPrecondition);
  // And the new owner's heartbeat works with the new token only.
  ASSERT_TRUE(beta.Renew("c0", 2).ok());
  EXPECT_EQ(beta.Renew("c0", 1).code(), StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

TEST(LeaseTest, ReadDistinguishesMissingFromCorrupt) {
  const std::string dir = TempDir("poisonrec_lease_read");
  LeaseManager leases(dir, "alpha", 5.0);
  ASSERT_TRUE(leases.Init().ok());

  EXPECT_EQ(leases.Read("absent").status().code(), StatusCode::kNotFound);

  {
    std::ofstream out(leases.LeasePath("garbled"));
    out << "this is not a lease";
  }
  EXPECT_EQ(leases.Read("garbled").status().code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

TEST(LeaseTest, ValidSyntaxWithBadChecksumIsDataLoss) {
  const std::string dir = TempDir("poisonrec_lease_badcrc");
  LeaseManager leases(dir, "alpha", 5.0);
  ASSERT_TRUE(leases.Init().ok());
  ASSERT_TRUE(leases.Acquire("c0").ok());

  // Tamper with a checksummed field while keeping the JSON valid and
  // the crc member in place: structural validation alone would accept
  // the file; only the CRC32C line checksum catches the edit.
  const std::string path = leases.LeasePath("c0");
  std::string contents;
  {
    std::ifstream in(path);
    std::getline(in, contents);
  }
  const std::size_t pos = contents.find("\"token\":1");
  ASSERT_NE(pos, std::string::npos) << contents;
  contents.replace(pos, 9, "\"token\":9");
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents << "\n";
  }
  const Status tampered = leases.Read("c0").status();
  EXPECT_EQ(tampered.code(), StatusCode::kDataLoss);
  EXPECT_NE(tampered.message().find("checksum"), std::string::npos)
      << tampered;

  // Legacy lease files written before line checksums (no crc member)
  // still parse: the framing is opt-in on read.
  {
    std::ofstream out(leases.LeasePath("legacy"), std::ios::trunc);
    out << R"({"type":"lease","campaign_id":"legacy","owner":"old",)"
        << R"("pid":1,"token":3,"renewed_unix":1.0,"ttl_seconds":5.0})"
        << "\n";
  }
  auto legacy = leases.Read("legacy");
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(legacy->token, 3u);
  std::filesystem::remove_all(dir);
}

TEST(LeaseTest, ReleasedLeaseIsSeizableByAnySibling) {
  const std::string dir = TempDir("poisonrec_lease_seizable");
  LeaseManager alpha(dir, "alpha", 5.0);
  LeaseManager beta(dir, "beta", 5.0);
  ASSERT_TRUE(alpha.Init().ok());
  auto lease = alpha.Acquire("c0");
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(alpha.Release("c0", lease->token).ok());

  auto read = beta.Read("c0");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(beta.Seizable("c0"));
  auto claim = beta.Acquire("c0");
  ASSERT_TRUE(claim.ok()) << claim.status();
  EXPECT_EQ(claim->token, 2u);
  std::filesystem::remove_all(dir);
}

/// Sets a file's mtime: the damaged-lease rule reads how long ago the
/// file was last rewritten, since its contents cannot be trusted.
void SetMtime(const std::string& path, std::time_t unix_seconds) {
  struct timespec times[2] = {{unix_seconds, 0}, {unix_seconds, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

TEST(LeaseTest, DamagedLeaseIsSeizedOnlyAfterAnUnrewrittenTtl) {
  const std::string dir = TempDir("poisonrec_lease_damaged");
  LeaseManager alpha(dir, "alpha", /*ttl_seconds=*/5.0);
  ASSERT_TRUE(alpha.Init().ok());
  double now = 100.0;
  alpha.SetClockForTest([&now] { return now; });
  // A torn lease: neither its owner nor its token can be read.
  {
    std::ofstream out(alpha.LeasePath("c0"));
    out << R"({"type":"lease","campaign_id":"c0","own)";
  }
  SetMtime(alpha.LeasePath("c0"), 100);
  ASSERT_EQ(alpha.Read("c0").status().code(), StatusCode::kDataLoss);

  // Within a TTL of its last rewrite a live owner may still be behind
  // it (owners rewrite every ttl/3).
  now = 104.0;
  EXPECT_FALSE(alpha.Seizable("c0"));
  EXPECT_EQ(alpha.Acquire("c0", /*token_floor=*/3).status().code(),
            StatusCode::kUnavailable);

  // Untouched for longer than a TTL: abandoned, and seized in a new
  // epoch above the token floor.
  now = 106.0;
  EXPECT_TRUE(alpha.Seizable("c0"));
  auto seized = alpha.Acquire("c0", /*token_floor=*/3);
  ASSERT_TRUE(seized.ok()) << seized.status();
  EXPECT_EQ(seized->owner, "alpha");
  EXPECT_EQ(seized->token, 4u);
  auto rewritten = alpha.Read("c0");
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_EQ(rewritten->token, 4u);
  std::filesystem::remove_all(dir);
}

TEST(LeaseTest, MissingLeaseStartsAboveTheTokenFloor) {
  const std::string dir = TempDir("poisonrec_lease_floor");
  LeaseManager alpha(dir, "alpha", 5.0);
  ASSERT_TRUE(alpha.Init().ok());
  EXPECT_TRUE(alpha.Seizable("c0"));

  // The journal or a checkpoint name already carries token 2 (say, the
  // lease dir was deleted): the new epoch must not reuse it.
  auto lease = alpha.Acquire("c0", /*token_floor=*/2);
  ASSERT_TRUE(lease.ok()) << lease.status();
  EXPECT_EQ(lease->token, 3u);

  // Re-acquiring our own lease keeps the epoch the floor agrees with.
  auto again = alpha.Acquire("c0", /*token_floor=*/3);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->token, 3u);

  // After a release the next epoch exceeds whichever is higher.
  ASSERT_TRUE(alpha.Release("c0", 3).ok());
  auto above_lease = alpha.Acquire("c0", /*token_floor=*/1);
  ASSERT_TRUE(above_lease.ok()) << above_lease.status();
  EXPECT_EQ(above_lease->token, 4u);
  ASSERT_TRUE(alpha.Release("c0", 4).ok());
  auto above_floor = alpha.Acquire("c0", /*token_floor=*/9);
  ASSERT_TRUE(above_floor.ok()) << above_floor.status();
  EXPECT_EQ(above_floor->token, 10u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace poisonrec::orch
