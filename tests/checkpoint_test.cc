// Crash-safe checkpoint/resume tests for PoisonRecAttacker: a run that is
// killed and resumed from a checkpoint must continue bit-identically to
// one that never stopped — including under injected faults.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ppo.h"
#include "data/synthetic.h"
#include "env/fault.h"
#include "rec/registry.h"
#include "util/fsio.h"

namespace poisonrec::core {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct Fixture {
  Fixture()
      : environment(MakeLog(), rec::MakeRecommender("ItemPop").value(),
                    MakeEnvConfig()) {}

  static data::Dataset MakeLog() {
    data::SyntheticConfig cfg;
    cfg.num_users = 100;
    cfg.num_items = 80;
    cfg.num_interactions = 1000;
    cfg.seed = 3;
    return data::GenerateSynthetic(cfg);
  }

  static env::EnvironmentConfig MakeEnvConfig() {
    env::EnvironmentConfig cfg;
    cfg.num_attackers = 6;
    cfg.trajectory_length = 6;
    cfg.num_target_items = 3;
    cfg.num_candidate_originals = 20;
    cfg.seed = 11;
    return cfg;
  }

  static PoisonRecConfig MakeAttackerConfig() {
    PoisonRecConfig cfg;
    cfg.samples_per_step = 6;
    cfg.batch_size = 6;
    cfg.update_epochs = 2;
    cfg.policy.embedding_dim = 8;
    cfg.seed = 7;
    return cfg;
  }

  env::AttackEnvironment environment;
};

void ExpectStatsBitwiseEqual(const TrainStepStats& a, const TrainStepStats& b,
                             const char* context) {
  EXPECT_EQ(a.step, b.step) << context;
  EXPECT_DOUBLE_EQ(a.mean_reward, b.mean_reward) << context;
  EXPECT_DOUBLE_EQ(a.max_reward, b.max_reward) << context;
  EXPECT_DOUBLE_EQ(a.min_reward, b.min_reward) << context;
  EXPECT_DOUBLE_EQ(a.best_reward_so_far, b.best_reward_so_far) << context;
  EXPECT_DOUBLE_EQ(a.loss, b.loss) << context;
  EXPECT_DOUBLE_EQ(a.target_click_ratio, b.target_click_ratio) << context;
  EXPECT_EQ(a.failed_queries, b.failed_queries) << context;
  EXPECT_EQ(a.retries, b.retries) << context;
  EXPECT_EQ(a.imputed_rewards, b.imputed_rewards) << context;
}

TEST(CheckpointTest, SaveThenLoadRoundTripsState) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.Train(2);
  const std::string path = TempPath("poisonrec_attacker_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());

  PoisonRecAttacker restored(&f.environment, Fixture::MakeAttackerConfig());
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
  EXPECT_EQ(restored.steps_taken(), 2u);
  EXPECT_DOUBLE_EQ(restored.best_episode().reward,
                   attacker.best_episode().reward);
  ASSERT_EQ(restored.best_episode().trajectories.size(),
            attacker.best_episode().trajectories.size());
  std::remove(path.c_str());
}

TEST(CheckpointTest, KillAndResumeIsBitIdentical) {
  Fixture f_full;
  Fixture f_killed;
  const auto cfg = Fixture::MakeAttackerConfig();

  // Uninterrupted reference run: 6 steps.
  PoisonRecAttacker uninterrupted(&f_full.environment, cfg);
  const auto reference = uninterrupted.Train(6);

  // Run 3 steps, checkpoint, "crash", resume in a fresh attacker.
  const std::string path = TempPath("poisonrec_kill_resume_ckpt.bin");
  {
    PoisonRecAttacker first_process(&f_killed.environment, cfg);
    first_process.Train(3);
    ASSERT_TRUE(first_process.SaveCheckpoint(path).ok());
    // first_process is destroyed here — the "kill".
  }
  PoisonRecAttacker resumed(&f_killed.environment, cfg);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  EXPECT_EQ(resumed.steps_taken(), 3u);
  const auto tail = resumed.Train(3);

  ASSERT_EQ(tail.size(), 3u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ExpectStatsBitwiseEqual(reference[3 + i], tail[i], "resumed step");
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, KillAndResumeUnderFaultsIsBitIdentical) {
  Fixture f_full;
  Fixture f_killed;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.retry.max_attempts = 3;

  env::FaultProfile profile;
  profile.query_failure_rate = 0.2;
  profile.injection_drop_rate = 0.1;
  profile.shadow_ban_rate = 0.05;
  profile.seed = 21;
  const SleepFn no_sleep = [](double) {};

  env::FaultyEnvironment faulty_full(&f_full.environment, profile);
  PoisonRecAttacker uninterrupted(&f_full.environment, cfg);
  uninterrupted.AttachPlatform(&faulty_full, nullptr, no_sleep);
  const auto reference = uninterrupted.Train(6);

  const std::string path = TempPath("poisonrec_fault_resume_ckpt.bin");
  env::FaultyEnvironment faulty_killed(&f_killed.environment, profile);
  {
    PoisonRecAttacker first_process(&f_killed.environment, cfg);
    first_process.AttachPlatform(&faulty_killed, nullptr, no_sleep);
    first_process.Train(3);
    ASSERT_TRUE(first_process.SaveCheckpoint(path).ok());
  }
  PoisonRecAttacker resumed(&f_killed.environment, cfg);
  resumed.AttachPlatform(&faulty_killed, nullptr, no_sleep);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  const auto tail = resumed.Train(3);

  for (std::size_t i = 0; i < tail.size(); ++i) {
    ExpectStatsBitwiseEqual(reference[3 + i], tail[i], "faulty resumed step");
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, AtomicWriteLeavesNoTmpFileAndOverwritesSafely) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.TrainStep();
  const std::string path = TempPath("poisonrec_atomic_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Saving again over an existing checkpoint also succeeds.
  attacker.TrainStep();
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());
  PoisonRecAttacker restored(&f.environment, Fixture::MakeAttackerConfig());
  EXPECT_TRUE(restored.LoadCheckpoint(path).ok());
  EXPECT_EQ(restored.steps_taken(), 2u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptOrMissingCheckpointIsRejectedCleanly) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  EXPECT_EQ(attacker.LoadCheckpoint("/nonexistent/ckpt.bin").code(),
            StatusCode::kIoError);

  const std::string garbage = TempPath("poisonrec_garbage_ckpt.bin");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  EXPECT_EQ(attacker.LoadCheckpoint(garbage).code(),
            StatusCode::kInvalidArgument);
  std::remove(garbage.c_str());

  // A truncated checkpoint is torn state from a crash mid-publish:
  // kDataLoss, distinct from a merely missing file (kIoError), so the
  // orchestrator knows to discard it and replay from scratch.
  const std::string path = TempPath("poisonrec_truncated_ckpt.bin");
  attacker.TrainStep();
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  PoisonRecAttacker victim(&f.environment, Fixture::MakeAttackerConfig());
  EXPECT_EQ(victim.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  EXPECT_EQ(victim.steps_taken(), 0u);
  victim.TrainStep();  // still trains fine

  // Truncating into the header (even to zero bytes) is also kDataLoss.
  std::filesystem::resize_file(path, 4);
  EXPECT_EQ(victim.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  std::filesystem::resize_file(path, 0);
  EXPECT_EQ(victim.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointTest, OldVersionCheckpointIsRejectedWithClearError) {
  // A v1 checkpoint (pre account-pool / adaptive-defender) must be
  // rejected as kInvalidArgument, not misparsed as the current format.
  const std::string path = TempPath("poisonrec_v1_ckpt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t header[2] = {0x5052434bu /* "PRCK" */, 1u};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    const std::uint64_t steps = 3;
    out.write(reinterpret_cast<const char*>(&steps), sizeof(steps));
  }
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  const Status status = attacker.LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 1"), std::string::npos)
      << status.message();
  EXPECT_EQ(attacker.steps_taken(), 0u);
  attacker.TrainStep();  // attacker unharmed
  std::remove(path.c_str());
}

TEST(CheckpointTest, PoolConfigurationMismatchIsRejected) {
  // An environment large enough for a 2-account reserve on 4 slots.
  auto env_cfg = Fixture::MakeEnvConfig();
  env_cfg.num_attackers = 6;
  env::AttackEnvironment environment(
      Fixture::MakeLog(), rec::MakeRecommender("ItemPop").value(), env_cfg);

  auto pooled_cfg = Fixture::MakeAttackerConfig();
  pooled_cfg.pool.reserve_accounts = 2;
  PoisonRecAttacker pooled(&environment, pooled_cfg);
  pooled.TrainStep();
  const std::string path = TempPath("poisonrec_pool_mismatch_ckpt.bin");
  ASSERT_TRUE(pooled.SaveCheckpoint(path).ok());

  // A pooled checkpoint cannot restore into a pool-less attacker.
  Fixture poolless_fixture;
  PoisonRecAttacker poolless(&poolless_fixture.environment,
                             Fixture::MakeAttackerConfig());
  EXPECT_EQ(poolless.LoadCheckpoint(path).code(),
            StatusCode::kInvalidArgument);

  // Same policy shape (4 slots), different pool total (7 accounts vs 6):
  // caught by the pool-section shape validation.
  auto bigger_env_cfg = env_cfg;
  bigger_env_cfg.num_attackers = 7;
  env::AttackEnvironment bigger_environment(
      Fixture::MakeLog(), rec::MakeRecommender("ItemPop").value(),
      bigger_env_cfg);
  auto bigger_pool_cfg = pooled_cfg;
  bigger_pool_cfg.pool.reserve_accounts = 3;
  PoisonRecAttacker mismatched(&bigger_environment, bigger_pool_cfg);
  const Status status = mismatched.LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("pool"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, PooledRoundTripRestoresPoolState) {
  auto env_cfg = Fixture::MakeEnvConfig();
  env_cfg.num_attackers = 6;
  env::AttackEnvironment environment(
      Fixture::MakeLog(), rec::MakeRecommender("ItemPop").value(), env_cfg);
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.pool.reserve_accounts = 2;

  PoisonRecAttacker attacker(&environment, cfg);
  attacker.Train(2);
  const std::string path = TempPath("poisonrec_pooled_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());

  PoisonRecAttacker restored(&environment, cfg);
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
  ASSERT_NE(restored.account_pool(), nullptr);
  EXPECT_EQ(restored.account_pool()->slot_accounts(),
            attacker.account_pool()->slot_accounts());
  EXPECT_EQ(restored.account_pool()->reserve_remaining(),
            attacker.account_pool()->reserve_remaining());
  EXPECT_EQ(restored.account_pool()->retired_accounts(),
            attacker.account_pool()->retired_accounts());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MismatchedPolicyShapeIsRejected) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.TrainStep();
  const std::string path = TempPath("poisonrec_shape_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());

  auto other_cfg = Fixture::MakeAttackerConfig();
  other_cfg.policy.embedding_dim = 16;  // different parameter shapes
  PoisonRecAttacker other(&f.environment, other_cfg);
  EXPECT_EQ(other.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

std::uint64_t U64At(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

TEST(CheckpointTest, OversizedLengthFieldIsDataLossNotAnException) {
  Fixture f;
  const auto cfg = Fixture::MakeAttackerConfig();
  PoisonRecAttacker trained(&f.environment, cfg);
  trained.Train(2);
  const std::string path = TempPath("poisonrec_oversized_ckpt.bin");
  ASSERT_TRUE(trained.SaveCheckpoint(path).ok());
  StatusOr<std::string> payload = ReadFileVerified(path);
  ASSERT_TRUE(payload.ok());

  // Walk the v4 layout (core/ppo.cc) to each length or count field.
  std::size_t offset = 8 + 8 + 8 + 8;  // header, steps, seed, count
  std::size_t moment_bytes = 0;
  for (const nn::Tensor& p : trained.policy().Parameters()) {
    offset += 16 + p.size() * sizeof(float);
    moment_bytes += 2 * p.size() * sizeof(float);
  }
  offset += 8 + moment_bytes;  // Adam step count, m and v
  const std::size_t rng_len_at = offset;
  offset += 8 + U64At(*payload, rng_len_at) + 8 + 1;  // rng, reward, flag
  const std::size_t n_traj_at = offset;
  ASSERT_GT(U64At(*payload, n_traj_at), 0u);
  offset += 8 + 8;  // n_traj, attacker index
  ASSERT_GT(U64At(*payload, offset), 0u);  // first trajectory has steps
  offset += 8 + 8;  // n_steps, item
  const std::size_t path_len_at = offset;
  offset += 8 + U64At(*payload, path_len_at) * sizeof(std::int32_t);
  const std::size_t lp_len_at = offset;
  ASSERT_GT(U64At(*payload, lp_len_at), 0u);
  ASSERT_LE(U64At(*payload, lp_len_at), U64At(*payload, path_len_at));

  const std::uint64_t kHuge = (1ull << 63) - 16;
  const std::pair<const char*, std::size_t> fields[] = {
      {"rng_len", rng_len_at},
      {"n_traj", n_traj_at},
      {"path_len", path_len_at},
      {"lp_len", lp_len_at}};
  for (const auto& [name, at] : fields) {
    std::string damaged = *payload;
    std::memcpy(damaged.data() + at, &kHuge, sizeof(kHuge));
    ASSERT_TRUE(WriteFileDurable(path, WithIntegrityFooter(damaged)).ok());
    PoisonRecAttacker victim(&f.environment, cfg);
    victim.TrainStep();
    const std::vector<float> before = victim.policy().Parameters()[0].data();
    Status status;
    EXPECT_NO_THROW(status = victim.LoadCheckpoint(path)) << name;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << name;
    EXPECT_NE(status.message().find("truncated checkpoint"),
              std::string::npos)
        << name << ": " << status.message();
    EXPECT_EQ(victim.steps_taken(), 1u) << name;
    EXPECT_EQ(victim.policy().Parameters()[0].data(), before) << name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace poisonrec::core
