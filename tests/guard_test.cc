// Training-stability guardrail tests: finite-ness sweeps (util/guard.h),
// the Eq. 8 degenerate-batch hardening, the monitors wired into TrainStep
// and their {"type":"guard",...} event records, and the self-healing
// TrainGuarded rollback driver (NaN rewards injected mid-campaign must be
// detected, logged, rolled back, and healed — or the campaign must abort
// with a clear status).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ppo.h"
#include "data/synthetic.h"
#include "env/fault.h"
#include "nn/optimizer.h"
#include "obs/event_log.h"
#include "rec/registry.h"
#include "util/guard.h"
#include "util/stats.h"

namespace poisonrec {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();
constexpr float kInfF = std::numeric_limits<float>::infinity();

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The {"type":"guard",...} records of an event-stream file, in order.
std::vector<std::string> GuardLines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(ReadFile(path));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"type\":\"guard\",", 0) == 0) lines.push_back(line);
  }
  return lines;
}

// -- SweepFinite --------------------------------------------------------------

TEST(SweepFiniteTest, CleanBufferReportsClean) {
  const std::vector<float> clean = {0.0f, -1.5f, 3e30f};
  const FiniteSweep sweep = SweepFinite(clean);
  EXPECT_TRUE(sweep.clean());
  EXPECT_EQ(sweep.checked, 3u);
  EXPECT_EQ(sweep.bad(), 0u);
}

TEST(SweepFiniteTest, CountsNanInfAndFirstBadIndex) {
  const std::vector<float> dirty = {1.0f, kNanF, kInfF, -kInfF, 2.0f};
  const FiniteSweep sweep = SweepFinite(dirty);
  EXPECT_FALSE(sweep.clean());
  EXPECT_EQ(sweep.checked, 5u);
  EXPECT_EQ(sweep.nan, 1u);
  EXPECT_EQ(sweep.inf, 2u);
  EXPECT_EQ(sweep.bad(), 3u);
  EXPECT_EQ(sweep.first_bad, 1u);
}

TEST(SweepFiniteTest, DoubleOverloadMatchesFloat) {
  const std::vector<double> dirty = {kInf, 0.0, kNan};
  const FiniteSweep sweep = SweepFinite(dirty);
  EXPECT_EQ(sweep.nan, 1u);
  EXPECT_EQ(sweep.inf, 1u);
  EXPECT_EQ(sweep.first_bad, 0u);
}

// -- Eq. 8 degenerate batches (satellite: zero-variance guards) ---------------

TEST(NormalizeRewardsTest, ConstantBatchDegradesToZeroAdvantages) {
  std::vector<double> values = {5.0, 5.0, 5.0};
  NormalizeRewards(&values);
  for (double v : values) EXPECT_EQ(v, 0.0);
}

TEST(NormalizeRewardsTest, SingleObservationBatchIsZero) {
  std::vector<double> one = {42.0};
  NormalizeRewards(&one);
  EXPECT_EQ(one[0], 0.0);

  std::vector<double> masked = {42.0, 7.0};
  NormalizeRewards(&masked, {1, 0});  // only one valid entry
  EXPECT_EQ(masked[0], 0.0);
  EXPECT_EQ(masked[1], 0.0);
}

TEST(NormalizeRewardsTest, NonFiniteEntriesAreExcludedAndZeroed) {
  std::vector<double> values = {1.0, kNan, 3.0};
  NormalizeRewards(&values);
  // Statistics over {1, 3}: mean 2, population sd 1.
  EXPECT_DOUBLE_EQ(values[0], -1.0);
  EXPECT_EQ(values[1], 0.0);
  EXPECT_DOUBLE_EQ(values[2], 1.0);

  // Masked variant: a non-finite entry is invalid even when masked valid.
  std::vector<double> masked = {1.0, kInf, 3.0};
  NormalizeRewards(&masked, {1, 1, 1});
  EXPECT_DOUBLE_EQ(masked[0], -1.0);
  EXPECT_EQ(masked[1], 0.0);
  EXPECT_DOUBLE_EQ(masked[2], 1.0);
  for (double v : masked) EXPECT_TRUE(std::isfinite(v));
}

// -- GradNorm / configurable clipping -----------------------------------------

TEST(GradNormTest, MeasuresWithoutClippingAndPropagatesNan) {
  nn::Tensor t = nn::Tensor::FromData(1, 2, {0.0f, 0.0f});
  t.mutable_grad() = {3.0f, 4.0f};
  const std::vector<nn::Tensor> params = {t};
  EXPECT_FLOAT_EQ(nn::GradNorm(params), 5.0f);
  EXPECT_FLOAT_EQ(t.grad()[0], 3.0f);  // untouched

  // ClipGradNorm returns the same pre-clip norm, then rescales.
  EXPECT_FLOAT_EQ(nn::ClipGradNorm(params, 1.0f), 5.0f);
  EXPECT_FLOAT_EQ(t.grad()[0], 3.0f / 5.0f);

  t.mutable_grad() = {1.0f, kNanF};
  EXPECT_TRUE(std::isnan(nn::GradNorm(params)));
}

// -- Attacker-level monitors --------------------------------------------------

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

  static core::PoisonRecConfig MakeAttackerConfig() {
    core::PoisonRecConfig cfg;
    cfg.samples_per_step = 6;
    cfg.batch_size = 6;
    cfg.update_epochs = 2;
    cfg.policy.embedding_dim = 8;
    cfg.seed = 7;
    cfg.guard.enabled = true;
    return cfg;
  }

  env::AttackEnvironment environment;
};

TEST(GuardMonitorTest, CleanStepReportsTelemetryAndNoEvents) {
  Fixture f;
  core::PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  const std::string events = TempPath("poisonrec_guard_clean_events.jsonl");
  obs::EventLog event_log;
  ASSERT_TRUE(event_log.Open(events));
  attacker.SetEventLog(&event_log);
  const core::TrainStepStats stats = attacker.TrainStep();
  EXPECT_FALSE(stats.guard.tripped());
  EXPECT_GT(stats.pre_clip_grad_norm, 0.0);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_TRUE(std::isfinite(stats.approx_kl));
  EXPECT_TRUE(GuardLines(events).empty());
  std::remove(events.c_str());
}

TEST(GuardMonitorTest, GuardOffMatchesGuardOnWhenNothingTrips) {
  Fixture f_off;
  Fixture f_on;
  auto cfg_off = Fixture::MakeAttackerConfig();
  cfg_off.guard.enabled = false;
  core::PoisonRecAttacker off(&f_off.environment, cfg_off);
  core::PoisonRecAttacker on(&f_on.environment, Fixture::MakeAttackerConfig());
  const auto s_off = off.Train(3);
  const auto s_on = on.Train(3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(s_off[i].loss, s_on[i].loss);
    EXPECT_DOUBLE_EQ(s_off[i].mean_reward, s_on[i].mean_reward);
  }
  EXPECT_DOUBLE_EQ(off.best_episode().reward, on.best_episode().reward);
}

TEST(GuardMonitorTest, PreStepSweepCatchesPlantedNanParameter) {
  Fixture f;
  core::PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  const std::string events = TempPath("poisonrec_guard_sweep_events.jsonl");
  obs::EventLog event_log;
  ASSERT_TRUE(event_log.Open(events));
  attacker.SetEventLog(&event_log);
  attacker.TrainStep();
  attacker.policy().Parameters()[0].mutable_data()[0] = kNanF;
  const core::TrainStepStats stats = attacker.TrainStep();
  ASSERT_TRUE(stats.guard.tripped());
  EXPECT_EQ(stats.guard.events[0].kind, GuardEventKind::kNonFiniteParameter);
  // Exactly one incident, on disk while the log is still open; the NaN
  // value is the string "nan" (JSON has no literal for it).
  const std::size_t checked =
      attacker.policy().SweepParametersFinite().checked;
  EXPECT_EQ(GuardLines(events),
            std::vector<std::string>{
                "{\"type\":\"guard\",\"step\":2,\"kind\":"
                "\"non_finite_parameter\",\"value\":\"nan\",\"threshold\":0,"
                "\"detail\":\"1/" +
                std::to_string(checked) + " non-finite before sampling\"}"});
  std::remove(events.c_str());
}

TEST(GuardMonitorTest, LogitMonitorCatchesNanParamsWhenPreSweepDisabled) {
  Fixture f;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.guard.pre_step_param_sweep = false;
  core::PoisonRecAttacker attacker(&f.environment, cfg);
  // NaN parameters propagate through the LSTM/DNN into the recomputed
  // decision log-probs (the Eq. 7/9 logits). Sampling itself survives
  // (NaN comparisons just bias the tree walk), so the logit monitor is
  // the first line of defense with the pre-step sweep off.
  for (nn::Tensor& p : attacker.policy().Parameters()) {
    p.mutable_data()[0] = kNanF;
  }
  const core::TrainStepStats stats = attacker.TrainStep();
  ASSERT_TRUE(stats.guard.tripped());
  EXPECT_EQ(stats.guard.events[0].kind, GuardEventKind::kNonFiniteLogit);
}

TEST(GuardMonitorTest, EntropyFloorTripsWhenSetImpossiblyHigh) {
  Fixture f;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.guard.entropy_floor = 1e9;  // sampled entropy is a few nats at most
  core::PoisonRecAttacker attacker(&f.environment, cfg);
  const core::TrainStepStats stats = attacker.TrainStep();
  ASSERT_TRUE(stats.guard.tripped());
  EXPECT_EQ(stats.guard.events[0].kind, GuardEventKind::kEntropyCollapse);
  // The trip happened before any backward pass.
  EXPECT_EQ(stats.pre_clip_grad_norm, 0.0);
}

TEST(GuardMonitorTest, PostStepSweepCatchesInfAdamMoment) {
  Fixture f;
  core::PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.TrainStep();
  // An Inf second moment keeps the parameter update finite (m / sqrt(inf)
  // is 0), so only the optimizer-state sweep can catch it.
  nn::Adam& adam = attacker.optimizer();
  std::vector<std::vector<float>> m = adam.first_moments();
  std::vector<std::vector<float>> v = adam.second_moments();
  v[0][0] = kInfF;
  ASSERT_TRUE(adam.RestoreState(adam.step_count(), m, v).ok());
  const core::TrainStepStats stats = attacker.TrainStep();
  ASSERT_TRUE(stats.guard.tripped());
  EXPECT_EQ(stats.guard.events[0].kind,
            GuardEventKind::kNonFiniteOptimizerState);
}

TEST(GuardMonitorTest, KlThresholdTripsOnObservedDivergence) {
  // The k1 approx-KL estimate can legitimately be negative, so derive a
  // threshold from an unguarded reference run: find the first step whose
  // mean approx-KL is positive, then re-run guarded with the threshold
  // set below that step's per-epoch KL. Both runs are identically seeded
  // and the guard changes no math until it trips, so the guarded run
  // must trip at exactly that step.
  Fixture f_ref;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.guard.enabled = false;
  core::PoisonRecAttacker reference(&f_ref.environment, cfg);
  const auto ref_stats = reference.Train(8);
  std::size_t trip_step = 0;
  double threshold = 0.0;
  for (const auto& s : ref_stats) {
    if (s.approx_kl > 0.0) {
      trip_step = s.step;
      // Epoch 0 recomputes the sampled log-probs exactly (KL = 0), so
      // with K=2 the positive epoch-1 KL is twice the reported mean;
      // the mean itself is a strictly smaller, safe threshold.
      threshold = s.approx_kl;
      break;
    }
  }
  ASSERT_GT(trip_step, 0u) << "no positive approx-KL in 8 steps";

  Fixture f_guard;
  cfg.guard.enabled = true;
  cfg.guard.approx_kl_threshold = threshold;
  core::PoisonRecAttacker guarded(&f_guard.environment, cfg);
  core::TrainStepStats tripped;
  for (std::size_t s = 0; s < trip_step; ++s) tripped = guarded.TrainStep();
  ASSERT_TRUE(tripped.guard.tripped());
  EXPECT_EQ(tripped.guard.events[0].kind, GuardEventKind::kKlDivergence);
  EXPECT_GT(tripped.guard.events[0].value, threshold);
}

TEST(GuardMonitorTest, ConfigurableGradClipReplacesHardcodedConstant) {
  Fixture f_a;
  Fixture f_b;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.guard.enabled = false;
  cfg.update_epochs = 1;  // so step 1 has no post-update epoch to diverge
  cfg.max_grad_norm = 0.0f;  // disabled
  core::PoisonRecAttacker unclipped(&f_a.environment, cfg);
  cfg.max_grad_norm = 1e-4f;  // aggressive clip
  core::PoisonRecAttacker clipped(&f_b.environment, cfg);
  const auto s_a = unclipped.Train(3);
  const auto s_b = clipped.Train(3);
  // Identical seeds, so step 1 (same initial params) observes the same
  // pre-clip norm; by step 3 the aggressively clipped run has diverged.
  EXPECT_DOUBLE_EQ(s_a[0].pre_clip_grad_norm, s_b[0].pre_clip_grad_norm);
  EXPECT_GT(s_a[0].pre_clip_grad_norm, 0.0);
  bool diverged = false;
  for (std::size_t i = 1; i < 3; ++i) {
    diverged = diverged ||
               s_a[i].pre_clip_grad_norm != s_b[i].pre_clip_grad_norm ||
               s_a[i].loss != s_b[i].loss;
  }
  EXPECT_TRUE(diverged);
}

// -- Rollback + self-healing --------------------------------------------------

TEST(GuardRollbackTest, LoadCheckpointRestoresPoisonedPolicyBitIdentically) {
  Fixture f;
  core::PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.Train(2);
  const std::string path = TempPath("poisonrec_guard_rollback_ckpt.bin");
  ASSERT_TRUE(attacker.SaveCheckpoint(path).ok());

  std::vector<std::vector<float>> before;
  for (const nn::Tensor& p : attacker.policy().Parameters()) {
    before.push_back(p.data());
  }
  // Poison everything, then roll back.
  for (nn::Tensor& p : attacker.policy().Parameters()) {
    p.mutable_data().assign(p.size(), kNanF);
  }
  EXPECT_FALSE(attacker.policy().SweepParametersFinite().clean());
  ASSERT_TRUE(attacker.LoadCheckpoint(path).ok());

  const std::vector<nn::Tensor> after = attacker.policy().Parameters();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i].data().size(), before[i].size());
    EXPECT_EQ(std::memcmp(after[i].data().data(), before[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << "parameter " << i << " not restored bit-identically";
  }
  std::remove(path.c_str());
}

TEST(GuardRollbackTest, TrainGuardedHealsNanRewardFaultsMidCampaign) {
  Fixture f;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.guard.max_rollbacks = 10;
  core::PoisonRecAttacker attacker(&f.environment, cfg);

  env::FaultProfile profile;
  profile.nan_reward_rate = 0.1;
  profile.seed = 77;
  env::FaultyEnvironment faulty(&f.environment, profile);
  attacker.AttachPlatform(&faulty, nullptr, [](double) {});

  const std::string path = TempPath("poisonrec_guard_heal_ckpt.bin");
  const core::GuardedTrainResult result = attacker.TrainGuarded(10, path);

  EXPECT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(attacker.steps_taken(), 10u);
  EXPECT_GT(result.rollbacks, 0u) << "fault rate produced no NaN rewards; "
                                     "pick a different seed";
  EXPECT_GT(result.incidents, 0u);
  EXPECT_GT(faulty.stats().nan_rewards, 0u);
  // A rollback burns its step index, so attempted steps == requested
  // steps and the clean (applied) updates are what remains.
  EXPECT_EQ(result.stats.size(), 10u);
  EXPECT_LT(result.rollbacks, 10u);
  std::size_t clean_steps = 0;
  for (const auto& s : result.stats) {
    if (!s.guard.tripped()) ++clean_steps;
  }
  EXPECT_EQ(clean_steps, 10u - result.rollbacks);
  // The healed policy is fully finite and the best episode is usable.
  EXPECT_TRUE(attacker.policy().SweepParametersFinite().clean());
  EXPECT_TRUE(std::isfinite(attacker.best_episode().reward));
  std::remove(path.c_str());
}

TEST(GuardRollbackTest, TrainGuardedAbortsAfterRollbackBudget) {
  Fixture f;
  auto cfg = Fixture::MakeAttackerConfig();
  cfg.guard.max_rollbacks = 2;
  core::PoisonRecAttacker attacker(&f.environment, cfg);
  const std::string events = TempPath("poisonrec_guard_abort.jsonl");
  obs::EventLog event_log;
  ASSERT_TRUE(event_log.Open(events));
  attacker.SetEventLog(&event_log);

  env::FaultProfile profile;
  profile.nan_reward_rate = 1.0;  // every reward is NaN: unhealable
  profile.seed = 5;
  env::FaultyEnvironment faulty(&f.environment, profile);
  attacker.AttachPlatform(&faulty, nullptr, [](double) {});

  const std::string path = TempPath("poisonrec_guard_abort_ckpt.bin");
  const float lr_before = attacker.optimizer().lr();
  const core::GuardedTrainResult result = attacker.TrainGuarded(6, path);

  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.rollbacks, 3u);  // budget of 2 + the final straw
  EXPECT_GT(result.incidents, 0u);
  // The backoff ran before the abort.
  EXPECT_LT(attacker.optimizer().lr(), lr_before);
  EXPECT_LT(attacker.config().clip_epsilon, 0.1f);
  // The event stream has the post-mortem on disk: one guard record per
  // incident.
  const std::vector<std::string> guard = GuardLines(events);
  EXPECT_EQ(guard.size(), result.incidents);
  ASSERT_FALSE(guard.empty());
  EXPECT_NE(guard[0].find("\"kind\":\"non_finite_reward\""),
            std::string::npos);
  // The rollback left the policy itself clean despite the abort.
  EXPECT_TRUE(attacker.policy().SweepParametersFinite().clean());
  std::remove(path.c_str());
  std::remove(events.c_str());
}

}  // namespace
}  // namespace poisonrec
